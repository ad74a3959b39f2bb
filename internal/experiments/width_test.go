package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"saga/internal/runner"
	"saga/internal/serialize"
)

// sealedRun runs sw's compute under ro into a fresh checkpoint store,
// seals it, and returns the result and the sealed store's bytes.
func sealedRun[T any](t *testing.T, sw *Sweep, compute func(runner.Options) (T, error), ro runner.Options) (T, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), sw.Name+".ckpt")
	ck := serialize.NewCheckpoint(path)
	ck.SetFingerprint(sw.Fingerprint)
	ro.Checkpoint = ck
	res, err := compute(ro)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Seal(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return res, raw
}

// TestPairwiseCellWidthByteIdentity holds a run owning fewer cells than
// its pool to the sequential run: a 2-scheduler grid on 4 workers anneals
// each of its 2 cells 2 chains wide, and the result and the sealed store
// are byte-identical to Workers: 1.
func TestPairwiseCellWidthByteIdentity(t *testing.T) {
	sw, compute, err := Pairwise.Bind(SweepParams{Schedulers: []string{"HEFT", "CPoP"}, Iters: 30, Restarts: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wide := runner.Options{Workers: 4}
	if w := wide.CellWorkers(sw.Cells); w != 2 {
		t.Fatalf("CellWorkers = %d, want 2", w)
	}
	seq, seqStore := sealedRun(t, sw, compute, runner.Options{Workers: 1})
	par, parStore := sealedRun(t, sw, compute, wide)
	samePairwise(t, "width 2", seq, par)
	if !bytes.Equal(seqStore, parStore) {
		t.Fatalf("sealed stores differ: %d bytes at width 1, %d at width 2", len(seqStore), len(parStore))
	}
}

// TestLeaseCellWidthMatchesFullRun gives a one-cell lease four workers,
// so its one cell anneals four restart chains at once, and holds the
// cell to the full sequential run's. On the appspecific block the chains
// call its InitialInstance closure concurrently, which the race detector
// checks under `make test-race`.
func TestLeaseCellWidthMatchesFullRun(t *testing.T) {
	for _, c := range []struct {
		name string
		p    SweepParams
		cell int
	}{
		{"fig4", SweepParams{Iters: 5, Restarts: 4, Seed: 2}, 17},
		{"appspecific", SweepParams{Workflow: "blast", CCR: 1, N: 2, Iters: 5, Restarts: 4, Seed: 3}, 5},
	} {
		sw, err := NewSweep(c.name, c.p)
		if err != nil {
			t.Fatal(err)
		}
		cells := func(ro runner.Options) map[int]json.RawMessage {
			ck := serialize.NewCheckpoint(filepath.Join(t.TempDir(), c.name+".ckpt"))
			ck.SetFingerprint(sw.Fingerprint)
			ro.Checkpoint = ck
			if err := sw.Run(ro); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			stored, err := ck.Load()
			if err != nil {
				t.Fatal(err)
			}
			return stored
		}
		lease := runner.Options{Workers: 4, Include: func(k int) bool { return k == c.cell }}
		if w := lease.CellWorkers(sw.Cells); w != 4 {
			t.Fatalf("%s: CellWorkers = %d, want 4", c.name, w)
		}
		got := cells(lease)
		want := cells(runner.Options{Workers: 1})
		if len(got) != 1 || len(want) != sw.Cells {
			t.Fatalf("%s: the lease stored %d cells, the full run %d of %d", c.name, len(got), len(want), sw.Cells)
		}
		if !bytes.Equal(got[c.cell], want[c.cell]) {
			t.Fatalf("%s: cell %d at width 4 differs from the full run's", c.name, c.cell)
		}
	}
}
