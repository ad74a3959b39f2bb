package serialize

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// iterFuzzSeeds is one store of every shape Iter meets: the legacy JSON
// fixture, a sealed (one-member) store, a live (member-per-cell) one,
// two stores concatenated, a torn one, and bytes that are neither.
func iterFuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	dir := t.TempDir()
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	path := filepath.Join(dir, "store.ckpt")
	ck := NewCheckpoint(path)
	ck.SetFingerprint("fuzz seed")
	for k, cell := range []string{`{"ratio":1.5}`, `[1,2,3]`, `"three"`, `null`, `4e-7`} {
		if err := ck.Store(k*3, json.RawMessage(cell)); err != nil {
			t.Fatal(err)
		}
	}
	live := read(path)
	if err := ck.Seal(); err != nil {
		t.Fatal(err)
	}
	sealed := read(path)
	return [][]byte{
		read(filepath.Join("testdata", "legacy.ckpt")),
		sealed,
		live,
		append(append([]byte{}, sealed...), live...),
		live[:len(live)-9],
		[]byte(`{"fingerprint":"x","cells":{"01":1}}`),
		{0x1f, 0x8b},
		nil,
	}
}

// checkIterAgainstLoad holds the two readers of a store to each other on
// arbitrary bytes: neither panics, they accept and refuse the same
// files, and Load returns exactly what Iter yields (a repeated index
// resolving to its last record).
func checkIterAgainstLoad(t *testing.T, path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	yielded := map[int]string{}
	fp, iterErr := Iter(path, func(k int, raw json.RawMessage) error {
		yielded[k] = string(raw)
		return nil
	})
	peeked, peekErr := PeekFingerprint(path)
	if iterErr == nil && (peekErr != nil || peeked != fp) {
		t.Fatalf("Iter read fingerprint %q, PeekFingerprint %q, %v", fp, peeked, peekErr)
	}
	ck := NewCheckpoint(path)
	ck.SetFingerprint(fp)
	loaded, loadErr := ck.Load()
	if (iterErr == nil) != (loadErr == nil) {
		t.Fatalf("Iter: %v, but Load: %v", iterErr, loadErr)
	}
	if iterErr != nil {
		return
	}
	if len(loaded) != len(yielded) {
		t.Fatalf("Load returned %d cells, Iter yielded %d", len(loaded), len(yielded))
	}
	for k, raw := range loaded {
		if got, ok := yielded[k]; !ok || got != string(raw) {
			t.Fatalf("cell %d: Load %s, Iter %s (present %v)", k, raw, got, ok)
		}
	}
}

func TestIterMatchesLoadOnSeeds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fuzz.ckpt")
	for _, seed := range iterFuzzSeeds(t) {
		checkIterAgainstLoad(t, path, seed)
	}
}

func FuzzIter(f *testing.F) {
	for _, seed := range iterFuzzSeeds(f) {
		f.Add(seed)
	}
	path := filepath.Join(f.TempDir(), "fuzz.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) { checkIterAgainstLoad(t, path, data) })
}
