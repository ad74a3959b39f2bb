package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestMapIncludeRunsOnlySelectedCells pins the dynamic-lease filter:
// only included cells run (with their global position, so values match
// the full run's) and the rest stay zero.
func TestMapIncludeRunsOnlySelectedCells(t *testing.T) {
	const n = 12
	lease := map[int]bool{2: true, 5: true, 9: true, 11: true}
	var mu sync.Mutex
	ran := map[int]bool{}
	out, err := Map(n, Options{Workers: 3, Include: func(k int) bool { return lease[k] }},
		func(k int) (float64, error) {
			mu.Lock()
			ran[k] = true
			mu.Unlock()
			return cellValue(k), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if ran[k] != lease[k] {
			t.Fatalf("cell %d ran=%v leased=%v", k, ran[k], lease[k])
		}
		want := 0.0
		if lease[k] {
			want = cellValue(k) // global position seed, not lease-local
		}
		if out[k] != want {
			t.Fatalf("cell %d = %v, want %v", k, out[k], want)
		}
	}
}

// TestOptionsOwns pins the helper drivers use to tell legitimately
// absent cells from missing results.
func TestOptionsOwns(t *testing.T) {
	all := Options{}
	leased := Options{Include: func(k int) bool { return k == 1 }}
	sharded := Options{Include: ShardSpec{Index: 0, Count: 2}.Owns}
	for k := 0; k < 4; k++ {
		if !all.Owns(k) {
			t.Fatalf("unrestricted options do not own cell %d", k)
		}
		if leased.Owns(k) != (k == 1) {
			t.Fatalf("leased.Owns(%d) = %v", k, leased.Owns(k))
		}
		if sharded.Owns(k) != (k%2 == 0) {
			t.Fatalf("sharded.Owns(%d) = %v", k, sharded.Owns(k))
		}
	}
}

// TestMapOnCellErrorContinues pins graceful degradation: failing cells
// are reported (not returned), stay out of the checkpoint store, keep
// zero values, count as progress, and never stop the other cells.
func TestMapOnCellErrorContinues(t *testing.T) {
	const n = 10
	boom := errors.New("boom")
	ck := newMemCheckpoint()
	var mu sync.Mutex
	failed := map[int]error{}
	var progress [][2]int
	out, err := Map(n, Options{
		Workers:    2,
		Checkpoint: ck,
		OnCellError: func(k int, err error) {
			failed[k] = err // serialized by the pool
		},
		Progress: func(done, total int) {
			progress = append(progress, [2]int{done, total})
		},
	}, func(k int) (float64, error) {
		if k == 3 {
			return 0, boom
		}
		if k == 7 {
			panic("cell 7 exploded")
		}
		mu.Lock()
		mu.Unlock()
		return cellValue(k), nil
	})
	if err != nil {
		t.Fatalf("sweep aborted despite OnCellError: %v", err)
	}
	if len(failed) != 2 || !errors.Is(failed[3], boom) || failed[7] == nil {
		t.Fatalf("failures reported: %v", failed)
	}
	if !strings.Contains(failed[7].Error(), "panic") {
		t.Fatalf("panic not converted: %v", failed[7])
	}
	for k := 0; k < n; k++ {
		_, stored := ck.cells[k]
		if k == 3 || k == 7 {
			if out[k] != 0 || stored {
				t.Fatalf("failed cell %d: value %v, stored %v", k, out[k], stored)
			}
			continue
		}
		if out[k] != cellValue(k) || !stored {
			t.Fatalf("cell %d: value %v, stored %v", k, out[k], stored)
		}
	}
	last := progress[len(progress)-1]
	if last != [2]int{n, n} {
		t.Fatalf("failed cells do not count as handled: final progress %v", last)
	}
}

// TestMapOnCellErrorStillAbortsOnStoreFailure pins the boundary: cell
// failures degrade gracefully, checkpoint I/O failures are
// infrastructure errors and abort regardless.
func TestMapOnCellErrorStillAbortsOnStoreFailure(t *testing.T) {
	ck := &failingCheckpoint{}
	_, err := Map(4, Options{
		Checkpoint:  ck,
		OnCellError: func(k int, err error) { t.Fatalf("store failure routed to OnCellError: %v", err) },
	}, func(k int) (int, error) { return k, nil })
	if err == nil {
		t.Fatal("store failure did not abort the sweep")
	}
}

type failingCheckpoint struct{ memCheckpoint }

func (f *failingCheckpoint) Store(index int, cell json.RawMessage) error {
	return errors.New("disk full")
}

// TestLeaseProgressPinnedTotals is the dynamic-lease extension of the
// shard-totals treatment: a worker runs one Map per lease against one
// shared store, and every printed line must report the pinned
// sweep-wide total with a cumulative count that never double-counts
// cells reloaded from earlier leases.
func TestLeaseProgressPinnedTotals(t *testing.T) {
	const n = 9
	store := newMemCheckpoint()
	var calls [][2]int
	lp := NewLeaseProgress(n, func(done, total int) {
		calls = append(calls, [2]int{done, total})
	})
	leases := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}
	for _, lease := range leases {
		set := map[int]bool{}
		for _, k := range lease {
			set[k] = true
		}
		_, err := Map(n, Options{
			Checkpoint: store, // later leases reload earlier cells
			Include:    func(k int) bool { return set[k] },
			Progress:   lp.Sweep(), // fresh per-sweep baseline
		}, func(k int) (float64, error) { return cellValue(k), nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range calls {
		if c[1] != n {
			t.Fatalf("call %d reported total %d, want the pinned sweep total %d", i, c[1], n)
		}
	}
	// done must be non-decreasing across lease boundaries — reassignment
	// or a new lease must never appear as a progress regression.
	for i := 1; i < len(calls); i++ {
		if calls[i][0] < calls[i-1][0] {
			t.Fatalf("pinned progress regressed: %v", calls)
		}
	}
	if last := calls[len(calls)-1]; last != [2]int{n, n} {
		t.Fatalf("final call %v, want [%d %d] (double-counted reloads?)", last, n, n)
	}

	// A re-leased cell the worker already computed (stolen, then handed
	// back) arrives via the store's load burst and must not count again.
	lp2calls := 0
	lp2 := NewLeaseProgress(n, func(done, total int) {
		lp2calls++
		if done > 0 {
			t.Fatalf("re-leased cells counted as fresh work: done=%d", done)
		}
	})
	set := map[int]bool{0: true, 1: true}
	_, err := Map(n, Options{
		Checkpoint: store,
		Include:    func(k int) bool { return set[k] },
		Progress:   lp2.Sweep(),
	}, func(k int) (float64, error) {
		t.Fatalf("cell %d recomputed despite the store", k)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lp2calls == 0 {
		t.Fatal("baseline call missing")
	}
}

// TestLeaseProgressWithPrinter wires LeaseProgress into the real
// ProgressPrinter, the composition the coordinate worker CLI runs, and
// checks every line counts against the pinned sweep total.
func TestLeaseProgressWithPrinter(t *testing.T) {
	const n = 6
	var buf strings.Builder
	store := newMemCheckpoint()
	lp := NewLeaseProgress(n, ProgressPrinter(&buf, "worker w1 fig4"))
	for _, lease := range [][]int{{0, 1, 2}, {3, 4, 5}} {
		set := map[int]bool{}
		for _, k := range lease {
			set[k] = true
		}
		_, err := Map(n, Options{
			Checkpoint: store,
			Include:    func(k int) bool { return set[k] },
			Progress:   lp.Sweep(),
		}, func(k int) (float64, error) { return cellValue(k), nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for i, line := range lines {
		if !strings.Contains(line, fmt.Sprintf("/%d cells", n)) {
			t.Fatalf("line %d not pinned to the sweep total: %q", i, line)
		}
	}
	if !strings.Contains(lines[len(lines)-1], fmt.Sprintf("%d/%d cells", n, n)) {
		t.Fatalf("final line %q does not report sweep completion", lines[len(lines)-1])
	}
}

// TestCellWorkers pins the one width rule: the resolved pool shared
// evenly among the cells the run owns, at least 1.
func TestCellWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	one := func(k int) bool { return k == 1 }
	for _, c := range []struct {
		pool, n int
		include func(int) bool
		want    int
	}{
		{0, 0, nil, procs}, {0, 1, nil, procs}, {0, 2, nil, max(1, procs/2)}, {0, 210, nil, max(1, procs/210)},
		{1, 0, nil, 1}, {1, 1, nil, 1}, {1, 2, nil, 1}, {1, 210, nil, 1},
		{4, 0, nil, 4}, {4, 1, nil, 4}, {4, 2, nil, 2}, {4, 210, nil, 1},
		{0, 210, one, procs}, {1, 210, one, 1}, {4, 210, one, 4},
		{4, 1, one, 4}, // the one cell lies outside [0, n): nothing is owned
	} {
		o := Options{Workers: c.pool, Include: c.include}
		if got := o.CellWorkers(c.n); got != c.want {
			t.Errorf("pool %d, n %d, one-cell include %v: CellWorkers = %d, want %d", c.pool, c.n, c.include != nil, got, c.want)
		}
	}
}
