package serialize

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.ckpt")
	ck := NewCheckpoint(path)
	if cells, err := ck.Load(); err != nil || len(cells) != 0 {
		t.Fatalf("fresh store: %v, %v", cells, err)
	}
	if err := ck.Store(3, json.RawMessage(`{"ratio":1.5}`)); err != nil {
		t.Fatal(err)
	}
	if err := ck.Store(0, json.RawMessage(`{"ratio":2.25}`)); err != nil {
		t.Fatal(err)
	}
	cells, err := NewCheckpoint(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || string(cells[3]) != `{"ratio":1.5}` || string(cells[0]) != `{"ratio":2.25}` {
		t.Fatalf("round trip lost cells: %v", cells)
	}
}

// TestCheckpointCellReadableWhenStoreReturns is the kill-after-N-cells
// drill: a process that dies right after any Store — no Flush, no Seal,
// the Checkpoint simply dropped — leaves a gzip stream a fresh Load
// reads every committed cell from, and the resumed process carries on
// from there.
func TestCheckpointCellReadableWhenStoreReturns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "killed.json") // the name selects nothing
	const fp = "sweep killed"
	reload := func(want int) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil || !isGzip(data) {
			t.Fatalf("store is not a gzip stream: %v", err)
		}
		fresh := NewCheckpoint(path)
		fresh.SetFingerprint(fp)
		cells, err := fresh.Load()
		if err != nil || len(cells) != want {
			t.Fatalf("after %d stores a fresh Load sees %d cells, %v", want, len(cells), err)
		}
		for k, raw := range cells {
			if string(raw) != fmt.Sprintf(`[%d]`, k) {
				t.Fatalf("cell %d = %s", k, raw)
			}
		}
	}
	for run, n := 0, 0; run < 3; run++ { // three processes, each killed after 4 cells
		ck := NewCheckpoint(path)
		ck.SetFingerprint(fp)
		if cells, err := ck.Load(); err != nil || len(cells) != n {
			t.Fatalf("run %d resumed %d cells, want %d: %v", run, len(cells), n, err)
		}
		for i := 0; i < 4; i++ {
			if err := ck.Store(n, json.RawMessage(fmt.Sprintf(`[%d]`, n))); err != nil {
				t.Fatal(err)
			}
			n++
			reload(n)
		}
	}
}

// TestStoreDedupConcurrentDisagreement races N completions of one cell
// with N different payloads: exactly one commits, every other caller is
// told its bytes disagree, and the committed value is the winner's.
func TestStoreDedupConcurrentDisagreement(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.ckpt")
	ck := NewCheckpoint(path)
	if _, err := ck.Load(); err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	stored := make([]bool, n)
	errs := make([]error, n)
	start := make(chan struct{})
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			stored[g], errs[g] = ck.StoreDedup(7, json.RawMessage(fmt.Sprintf(`{"from":%d}`, g)))
		}(g)
	}
	close(start)
	wg.Wait()
	winner := -1
	for g := 0; g < n; g++ {
		switch {
		case stored[g] && errs[g] == nil && winner < 0:
			winner = g
		case stored[g]:
			t.Fatalf("completions %d and %d both committed cell 7", winner, g)
		case errs[g] == nil || !strings.Contains(errs[g].Error(), "disagrees with the committed value"):
			t.Fatalf("losing completion %d: stored=%v, %v", g, stored[g], errs[g])
		}
	}
	if winner < 0 {
		t.Fatal("no completion committed")
	}
	cells, err := NewCheckpoint(path).Load()
	if want := fmt.Sprintf(`{"from":%d}`, winner); err != nil || len(cells) != 1 || string(cells[7]) != want {
		t.Fatalf("committed %v, want %s: %v", cells, want, err)
	}
}

// TestSealCanonicalForm pins what makes finished stores comparable as
// file bytes: whatever order the cells arrived in and however many
// processes appended them, the sealed store is one member, ascending.
func TestSealCanonicalForm(t *testing.T) {
	dir := t.TempDir()
	const fp = "fp seal"
	write := func(name string, order []int, resumeAt int) []byte {
		path := filepath.Join(dir, name)
		ck := NewCheckpoint(path)
		ck.SetFingerprint(fp)
		for i, k := range order {
			if i == resumeAt { // a second process takes over
				ck = NewCheckpoint(path)
				ck.SetFingerprint(fp)
				if _, err := ck.Load(); err != nil {
					t.Fatal(err)
				}
			}
			if err := ck.Store(k, json.RawMessage(fmt.Sprintf(`[%d]`, k))); err != nil {
				t.Fatal(err)
			}
		}
		live, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.Seal(); err != nil {
			t.Fatal(err)
		}
		sealed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(live, sealed) {
			t.Fatalf("%s: sealing a %d-member store changed nothing", name, len(order))
		}
		return sealed
	}
	a := write("a.ckpt", []int{0, 1, 2, 3, 4, 5}, -1)
	b := write("b.ckpt", []int{5, 3, 4, 0, 2, 1}, 3)
	if !bytes.Equal(a, b) {
		t.Fatal("two sealed stores of the same cells differ")
	}
	_, _, order := iterAll(t, filepath.Join(dir, "b.ckpt"))
	if !slices.IsSorted(order) || len(order) != 6 {
		t.Fatalf("sealed store iterates %v, want ascending", order)
	}
	// Sealing is idempotent, and a never-loaded Checkpoint seals what is
	// on disk rather than an empty map.
	again := NewCheckpoint(filepath.Join(dir, "b.ckpt"))
	again.SetFingerprint(fp)
	if err := again.Seal(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "b.ckpt")); !bytes.Equal(a, got) {
		t.Fatal("re-sealing a sealed store changed its bytes")
	}
}

// TestFinishPolicy pins the one finish policy the CLIs share.
func TestFinishPolicy(t *testing.T) {
	dir := t.TempDir()
	exists := func(path string) bool { _, err := os.Stat(path); return err == nil }

	// A shard owning zero cells still leaves a sealed, fingerprinted store.
	shard := filepath.Join(dir, "shard.ckpt")
	ck := NewCheckpoint(shard)
	ck.SetFingerprint("fp")
	if _, err := ck.Load(); err != nil {
		t.Fatal(err)
	}
	if kept, err := ck.Finish(true); err != nil || !kept || !exists(shard) {
		t.Fatalf("zero-cell shard: kept=%v, %v", kept, err)
	}
	if fp, err := PeekFingerprint(shard); err != nil || fp != "fp" {
		t.Fatalf("zero-cell shard store: %q, %v", fp, err)
	}

	// A complete run that stored a cell removes its store...
	full := filepath.Join(dir, "full.ckpt")
	ck = NewCheckpoint(full)
	if err := ck.Store(0, json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	if kept, err := ck.Finish(false); err != nil || kept || exists(full) {
		t.Fatalf("complete run: kept=%v, %v, exists=%v", kept, err, exists(full))
	}

	// ...and one that only read a store someone else wrote keeps it.
	merged := writeShard(t, dir, "merged.ckpt", "fp", map[int]string{0: `1`})
	ck = NewCheckpoint(merged)
	ck.SetFingerprint("fp")
	if _, err := ck.Load(); err != nil {
		t.Fatal(err)
	}
	if stored, err := ck.StoreDedup(0, json.RawMessage(`1`)); err != nil || stored {
		t.Fatalf("identical duplicate: stored=%v, %v", stored, err)
	}
	if kept, err := ck.Finish(false); err != nil || !kept || !exists(merged) {
		t.Fatalf("read-only run: kept=%v, %v", kept, err)
	}
}

func TestCheckpointFingerprintGuardsSweepIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fp.ckpt")
	ck := NewCheckpoint(path)
	ck.SetFingerprint("fig4 seed=1 iters=100")
	if _, err := ck.Load(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Store(0, json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	// Same fingerprint resumes.
	same := NewCheckpoint(path)
	same.SetFingerprint("fig4 seed=1 iters=100")
	if cells, err := same.Load(); err != nil || len(cells) != 1 {
		t.Fatalf("same-sweep resume failed: %v, %v", cells, err)
	}
	// Changed options must refuse, not silently mix stale cells in.
	other := NewCheckpoint(path)
	other.SetFingerprint("fig4 seed=1 iters=500")
	if _, err := other.Load(); err == nil {
		t.Fatal("stale checkpoint accepted by a differently-parameterized sweep")
	}
	// So must a fingerprint-less caller reading a fingerprinted store.
	if _, err := NewCheckpoint(path).Load(); err == nil {
		t.Fatal("fingerprinted store accepted by an unfingerprinted sweep")
	}
}

func TestCheckpointRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCheckpoint(path).Load(); err == nil {
		t.Fatal("corrupt store accepted")
	}
	if err := os.WriteFile(path, []byte(`{"cells":{"x":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCheckpoint(path).Load(); err == nil {
		t.Fatal("non-integer cell key accepted")
	}
}
