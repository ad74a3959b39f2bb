package serialize

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// oldJSONStore is a complete store in the one-object layout of the
// releases before the stream format, which every reader now refuses.
const oldJSONStore = `{"fingerprint":"fp old","cells":{"0":{"makespans":[3.25,2.5]},"1":{"makespans":[4,4.125]}}}`

// isGzip reports whether data begins with the gzip magic bytes.
func isGzip(data []byte) bool {
	return len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b
}

func iterAll(t *testing.T, path string) (string, map[int]string, []int) {
	t.Helper()
	cells := map[int]string{}
	var order []int
	fp, err := iterate(path, func(k int, raw json.RawMessage) error {
		cells[k] = string(raw)
		order = append(order, k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fp, cells, order
}

func TestStoreWriterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.gz")
	const fp = "sweep seed=7"
	w, err := NewStoreWriter(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if err := w.Append(k, json.RawMessage(fmt.Sprintf(`{"v":%d}`, k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil { // first member boundary
		t.Fatal(err)
	}
	if err := w.Append(3, json.RawMessage(`{"v":3}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	gotFP, cells, order := iterAll(t, path)
	if gotFP != fp {
		t.Fatalf("fingerprint %q, want %q", gotFP, fp)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %v", cells)
	}
	for k := 0; k < 4; k++ {
		if cells[k] != fmt.Sprintf(`{"v":%d}`, k) {
			t.Fatalf("cell %d = %s", k, cells[k])
		}
		if order[k] != k {
			t.Fatalf("iteration order %v, want append order", order)
		}
	}
}

func TestStoreWriterAppendsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.gz")
	const fp = "sweep seed=9"
	w, err := NewStoreWriter(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, json.RawMessage(`"a"`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and append more — the existing members must survive.
	w, err = NewStoreWriter(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, json.RawMessage(`"b"`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, cells, _ := iterAll(t, path)
	if len(cells) != 2 || cells[0] != `"a"` || cells[1] != `"b"` {
		t.Fatalf("cells after reopen = %v", cells)
	}
	// A different sweep's fingerprint is refused on reopen.
	if _, err := NewStoreWriter(path, "sweep seed=10"); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("fingerprint mismatch on reopen: %v", err)
	}
}

func TestStoreWriterFlushedPrefixSurvivesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.gz")
	const fp = "sweep torn"
	w, err := NewStoreWriter(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if err := w.Append(k, json.RawMessage(`0`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A flushed store read back intact: fine.
	if _, cells, _ := iterAll(t, path); len(cells) != 3 {
		t.Fatalf("cells = %v", cells)
	}
	// Tear the final member mid-way: the store must fail loudly with the
	// corrupt-store diagnostic, not return silently partial data.
	if err := os.WriteFile(path, whole[:len(whole)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = iterate(path, func(int, json.RawMessage) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "corrupt or truncated") {
		t.Fatalf("torn tail error = %v", err)
	}
}

// TestStoreWriterRefusesTornStoreOnReopen: appending after a torn final
// member would bury every new cell behind bytes no reader gets past, so
// reopening verifies the whole store, not just its header.
func TestStoreWriterRefusesTornStoreOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.ckpt")
	const fp = "sweep torn reopen"
	w, err := NewStoreWriter(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ { // two members
		if err := w.Append(k, json.RawMessage(`0`)); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := whole[:len(whole)-5]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = NewStoreWriter(path, fp)
	if err == nil || !strings.Contains(err.Error(), "corrupt or truncated") || !strings.Contains(err.Error(), path) {
		t.Fatalf("reopening a torn store: %v", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, torn) {
		t.Fatal("a refused reopen still wrote to the store")
	}
}

// TestOldJSONStoreRefusedEverywhere: a one-object JSON store at a path
// given to any reader or writer of stores fails with the corrupt-store
// diagnostic that names the file, and the file is left byte-identical.
func TestOldJSONStoreRefusedEverywhere(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.ckpt")
	if err := os.WriteFile(path, []byte(oldJSONStore), 0o644); err != nil {
		t.Fatal(err)
	}
	shard := writeShard(t, dir, "s1.ckpt", "fp old", map[int]string{2: `2`})
	open := map[string]func() error{
		"Iter": func() error {
			_, err := iterate(path, func(int, json.RawMessage) error { return nil })
			return err
		},
		"peekFingerprint": func() error {
			_, err := peekFingerprint(path)
			return err
		},
		"Checkpoint.Load": func() error {
			ck := NewCheckpoint(path)
			ck.SetFingerprint("fp old")
			_, err := ck.Load()
			return err
		},
		"NewStoreWriter": func() error {
			_, err := NewStoreWriter(path, "fp old")
			return err
		},
		"MergeCheckpoints": func() error {
			_, err := MergeCheckpoints(filepath.Join(dir, "merged.ckpt"), "fp old", 0, []string{shard, path})
			return err
		},
	}
	for _, name := range slices.Sorted(maps.Keys(open)) {
		err := open[name]()
		if err == nil || !strings.Contains(err.Error(), "corrupt or truncated") || !strings.Contains(err.Error(), path) {
			t.Errorf("%s on an old JSON store: %v", name, err)
		}
		if data, _ := os.ReadFile(path); string(data) != oldJSONStore {
			t.Fatalf("%s rewrote the refused store", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "merged.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("a refused merge left an output behind: %v", err)
	}
}

// BenchmarkCheckpointCommit is the coordinator's commit path: one Store
// per cell, each durable on return. ns/op is per cell; a whole-store
// rewrite per commit would make it grow with b.N.
func BenchmarkCheckpointCommit(b *testing.B) {
	cell := json.RawMessage(`{"ratio":1.4142135623730951,"instance":{"tasks":[{"name":"t0","cost":1.5},{"name":"t1","cost":2.25},{"name":"t2","cost":0.75}],"deps":[{"from":0,"to":1,"cost":0.5},{"from":1,"to":2,"cost":1.25}],"speeds":[1,0.5,2],"links":[[0,1,2],[1,0,0.5],[2,0.5,0]]}}`)
	ck := NewCheckpoint(filepath.Join(b.TempDir(), "commit.ckpt"))
	ck.SetFingerprint("bench commit")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ck.Store(i, cell); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCheckpointStreamFormatRoundTrip(t *testing.T) {
	for _, name := range []string{"ck.json.gz", "ck.json", "ck"} { // the name selects nothing
		t.Run(name, func(t *testing.T) { checkpointStreamRoundTrip(t, name) })
	}
}

func checkpointStreamRoundTrip(t *testing.T, name string) {
	dir := t.TempDir()
	path := filepath.Join(dir, name)
	const fp = "sweep gz"
	ck := NewCheckpoint(path)
	ck.SetFingerprint(fp)
	if _, err := ck.Load(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if err := ck.Store(k, json.RawMessage(fmt.Sprintf(`%d`, k*k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !isGzip(data) {
		t.Fatal("checkpoint wrote a non-gzip store")
	}
	if got, err := peekFingerprint(path); err != nil || got != fp {
		t.Fatalf("peekFingerprint = %q, %v", got, err)
	}
	// Fresh Checkpoint loads it back.
	ck2 := NewCheckpoint(path)
	ck2.SetFingerprint(fp)
	cells, err := ck2.Load()
	if err != nil || len(cells) != 5 {
		t.Fatalf("reload: %v, %v", cells, err)
	}
	for k := 0; k < 5; k++ {
		if string(cells[k]) != fmt.Sprintf(`%d`, k*k) {
			t.Fatalf("cell %d = %s", k, cells[k])
		}
	}
	// Wrong fingerprint refused.
	ck3 := NewCheckpoint(path)
	ck3.SetFingerprint("other sweep")
	if _, err := ck3.Load(); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("fingerprint mismatch: %v", err)
	}
}

func TestCheckpointStreamWritesDeterministic(t *testing.T) {
	dir := t.TempDir()
	write := func(name string) []byte {
		path := filepath.Join(dir, name)
		ck := NewCheckpoint(path)
		ck.SetFingerprint("fp det")
		for k := 9; k >= 0; k-- { // insertion order must not leak
			if err := ck.Store(k, json.RawMessage(fmt.Sprintf(`[%d]`, k))); err != nil {
				t.Fatal(err)
			}
		}
		if err := ck.Seal(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := write("a.gz")
	b := write("b.gz")
	if !bytes.Equal(a, b) {
		t.Fatal("two identical sealed stores wrote different bytes")
	}
}

func TestMergeStreamOutputDeterministic(t *testing.T) {
	dir := t.TempDir()
	const fp = "sweep det-merge"
	s0 := writeShard(t, dir, "s0.json", fp, map[int]string{0: `0`, 1: `1`})
	s1 := writeShard(t, dir, "s1.json", fp, map[int]string{2: `2`, 3: `3`})
	outA := filepath.Join(dir, "a.gz")
	outB := filepath.Join(dir, "b.gz")
	if _, err := MergeCheckpoints(outA, fp, 4, []string{s0, s1}); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeCheckpoints(outB, fp, 4, []string{s0, s1}); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(outA)
	b, _ := os.ReadFile(outB)
	if !bytes.Equal(a, b) {
		t.Fatal("re-merging identical shards wrote different bytes")
	}
}
