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

func iterAll(t *testing.T, path string) (string, map[int]string, []int) {
	t.Helper()
	cells := map[int]string{}
	var order []int
	fp, err := Iter(path, func(k int, raw json.RawMessage) error {
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

func TestStoreWriterRefusesJSONStore(t *testing.T) {
	dir := t.TempDir()
	path := writeLegacyShard(t, dir, "legacy.json", "fp", map[int]string{0: `1`})
	if _, err := NewStoreWriter(path, "fp"); err == nil || !strings.Contains(err.Error(), "legacy JSON store") {
		t.Fatalf("want legacy-store refusal, got %v", err)
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
	_, err = Iter(path, func(int, json.RawMessage) error { return nil })
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

// TestLegacyFixture reads a store written by the release before the
// stream format (testdata/legacy.ckpt, committed as that release wrote
// it) through every reader, and resumes onto it: the old cells and the
// new one end up in a stream store, and the JSON layout is gone.
func TestLegacyFixture(t *testing.T) {
	const fp = "fig7 n=4 seed=1 (legacy JSON store, written before the stream format)"
	want := map[int]string{
		0:  `{"makespans":[3.25,2.5]}`,
		1:  `{"makespans":[4,4.125]}`,
		2:  `{"makespans":[1.75,2]}`,
		10: `{"makespans":[9.5,8.875]}`,
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "legacy.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if isGzip(fixture) {
		t.Fatal("the fixture is not a legacy JSON store")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "legacy.ckpt")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(label string, cells map[int]string, want map[int]string) {
		t.Helper()
		if !maps.Equal(cells, want) {
			t.Fatalf("%s: cells %v, want %v", label, cells, want)
		}
	}

	gotFP, cells, order := iterAll(t, path)
	check("Iter", cells, want)
	if gotFP != fp || !slices.Equal(order, []int{0, 1, 2, 10}) {
		t.Fatalf("Iter: fingerprint %q, order %v", gotFP, order)
	}
	if got, err := PeekFingerprint(path); err != nil || got != fp {
		t.Fatalf("PeekFingerprint = %q, %v", got, err)
	}
	merged := filepath.Join(dir, "merged.ckpt")
	if n, err := MergeCheckpoints(merged, fp, 11, []string{path}); err == nil || n != 0 {
		t.Fatalf("merge of 4 cells covered an 11-cell sweep: %d, %v", n, err)
	}
	if n, err := MergeCheckpoints(merged, fp, 0, []string{path}); err != nil || n != 4 {
		t.Fatalf("MergeCheckpoints: %d, %v", n, err)
	}
	_, cells, _ = iterAll(t, merged)
	check("merged", cells, want)

	ck := NewCheckpoint(path)
	ck.SetFingerprint(fp)
	loaded, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	cells = map[int]string{}
	for k, raw := range loaded {
		cells[k] = string(raw)
	}
	check("Load", cells, want)
	if data, _ := os.ReadFile(path); !bytes.Equal(data, fixture) {
		t.Fatal("reading a legacy store rewrote it")
	}

	// Resume: one more cell. The first write migrates the store.
	if err := ck.Store(3, json.RawMessage(`{"makespans":[6,6.5]}`)); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || !isGzip(data) {
		t.Fatalf("resumed store is not a gzip stream: %v", err)
	}
	want[3] = `{"makespans":[6,6.5]}`
	_, cells, _ = iterAll(t, path)
	check("resumed", cells, want)
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

func TestIterReadsLegacyJSONStore(t *testing.T) {
	dir := t.TempDir()
	path := writeLegacyShard(t, dir, "legacy.json", "fp legacy", map[int]string{2: `20`, 0: `0`, 1: `10`})
	fp, cells, order := iterAll(t, path)
	if fp != "fp legacy" {
		t.Fatalf("fingerprint %q", fp)
	}
	if len(cells) != 3 || cells[2] != `20` {
		t.Fatalf("cells = %v", cells)
	}
	for i, k := range order {
		if i != k {
			t.Fatalf("legacy iteration order %v, want ascending", order)
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
	if got, err := PeekFingerprint(path); err != nil || got != fp {
		t.Fatalf("PeekFingerprint = %q, %v", got, err)
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

func TestMergeCheckpointsMixedFormats(t *testing.T) {
	dir := t.TempDir()
	const fp = "sweep mixed"
	// Shard 0 legacy JSON, shard 1 stream format.
	jsonShard := writeLegacyShard(t, dir, "s0.json", fp, map[int]string{0: `10`, 2: `12`})
	gzShard := filepath.Join(dir, "s1.gz")
	w, err := NewStoreWriter(gzShard, fp)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]int{{1, 11}, {3, 13}, {2, 12}} { // 2 duplicates s0, identical
		if err := w.Append(kv[0], json.RawMessage(fmt.Sprintf(`%d`, kv[1]))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	for _, out := range []string{"merged.json", "merged.json.gz"} {
		outPath := filepath.Join(dir, out)
		n, err := MergeCheckpoints(outPath, fp, 4, []string{jsonShard, gzShard})
		if err != nil || n != 4 {
			t.Fatalf("merge to %s: %d, %v", out, n, err)
		}
		if data, err := os.ReadFile(outPath); err != nil || !isGzip(data) {
			t.Fatalf("merge to %s did not write a gzip stream: %v", out, err)
		}
		_, cells, _ := iterAll(t, outPath)
		if len(cells) != 4 {
			t.Fatalf("%s cells = %v", out, cells)
		}
		for k := 0; k < 4; k++ {
			if cells[k] != fmt.Sprintf("1%d", k) {
				t.Fatalf("%s cell %d = %s", out, k, cells[k])
			}
		}
	}

	// A disagreeing duplicate across formats is still fatal.
	badShard := writeLegacyShard(t, dir, "bad.json", fp, map[int]string{1: `999`})
	if _, err := MergeCheckpoints(filepath.Join(dir, "m2.gz"), fp, 4, []string{jsonShard, gzShard, badShard}); err == nil ||
		!strings.Contains(err.Error(), "differs between") {
		t.Fatalf("disagreeing duplicate: %v", err)
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
