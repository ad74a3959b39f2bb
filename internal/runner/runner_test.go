package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"saga/internal/rng"
	"saga/internal/serialize"
)

// cellValue is a deterministic function of the cell position, so any
// scheduling-dependent result assignment shows up as a mismatch.
func cellValue(k int) float64 {
	return rng.New(CellSeed(42, k)).Float64()
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 100
	want, err := Map(n, Options{Workers: 1}, func(k int) (float64, error) {
		return cellValue(k), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 0, n + 7} {
		got, err := Map(n, Options{Workers: workers}, func(k int) (float64, error) {
			return cellValue(k), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("workers=%d: cell %d = %v, want %v", workers, k, got[k], want[k])
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(0, Options{}, func(k int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map: %v, %v", out, err)
	}
}

func TestMapErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(50, Options{Workers: 4}, func(k int) (int, error) {
		if k >= 20 {
			return 0, boom
		}
		return k, nil
	})
	if out != nil {
		t.Fatal("failed Map returned results")
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *CellError", err)
	}
	if ce.Index < 20 {
		t.Fatalf("failing cell %d cannot fail", ce.Index)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("cause lost: %v", err)
	}
}

func TestMapSequentialErrorIsFirst(t *testing.T) {
	// With one worker the error must be exactly the one a sequential
	// loop would return: the lowest failing index, nothing after it run.
	var ran []int
	_, err := Map(10, Options{Workers: 1}, func(k int) (int, error) {
		ran = append(ran, k)
		if k >= 3 {
			return 0, fmt.Errorf("cell %d", k)
		}
		return k, nil
	})
	var ce *CellError
	if !errors.As(err, &ce) || ce.Index != 3 {
		t.Fatalf("got %v, want cell 3 failure", err)
	}
	if len(ran) != 4 {
		t.Fatalf("ran cells %v after the failure", ran)
	}
}

func TestMapStopsDispatchAfterError(t *testing.T) {
	// After a failure no NEW cells may start, regardless of worker count.
	// Cells are dispatched in index order, so cell 5 starts before any
	// cell above 7; those wait until cell 5 has failed and then take 1 ms
	// each. Starting all 1000 would need the other seven workers to run
	// for over 100 ms while the failing one has still not recorded its
	// error: a margin, not a race the failing worker can lose by being
	// descheduled.
	var mu sync.Mutex
	started := map[int]bool{}
	failing := make(chan struct{})
	_, err := Map(1000, Options{Workers: 8}, func(k int) (int, error) {
		mu.Lock()
		started[k] = true
		mu.Unlock()
		if k == 5 {
			close(failing)
			return 0, errors.New("early failure")
		}
		if k > 7 {
			<-failing
			time.Sleep(time.Millisecond)
		}
		return k, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(started) == 1000 {
		t.Fatal("dispatch never stopped after the failure")
	}
}

func TestMapPanicBecomesCellError(t *testing.T) {
	_, err := Map(20, Options{Workers: 4}, func(k int) (int, error) {
		if k == 7 {
			panic("worker exploded")
		}
		return k, nil
	})
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("panic not converted: %v", err)
	}
	if !strings.Contains(err.Error(), "worker exploded") {
		t.Fatalf("panic message lost: %v", err)
	}
}

func TestMapNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := Map(64, Options{Workers: 8}, func(k int) (int, error) {
			return k * k, nil
		}); err != nil {
			t.Fatal(err)
		}
		// Error and panic paths must also drain the pool.
		Map(64, Options{Workers: 8}, func(k int) (int, error) {
			if k == 10 {
				panic("leak check")
			}
			return k, nil
		})
	}
	// Workers exit via wg.Wait before Map returns, but give the runtime
	// a moment to retire them before comparing.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestMapStress(t *testing.T) {
	// Many tiny cells with maximum contention on the dispatch lock. This
	// is the stress case `make test-race` (part of `make verify`) runs
	// under the race detector across the concurrent packages.
	const n = 5000
	out, err := Map(n, Options{Workers: 2 * runtime.GOMAXPROCS(0)}, func(k int) (int, error) {
		return k, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range out {
		if v != k {
			t.Fatalf("cell %d = %d", k, v)
		}
	}
}

func TestMapProgressMonotonic(t *testing.T) {
	var calls []int
	total := 0
	_, err := Map(30, Options{Workers: 4, Progress: func(done, n int) {
		calls = append(calls, done) // serialized by the pool's mutex
		total = n
	}}, func(k int) (int, error) { return k, nil })
	if err != nil {
		t.Fatal(err)
	}
	if total != 30 || len(calls) != 31 { // baseline 0, then one call per cell
		t.Fatalf("progress called %d times with total %d", len(calls), total)
	}
	for i, d := range calls {
		if d != i {
			t.Fatalf("progress not monotonic: %v", calls)
		}
	}
}

func TestGridShapeAndSeeding(t *testing.T) {
	grid, err := Grid(3, 5, Options{Workers: 4}, func(i, j, k int) ([3]int, error) {
		return [3]int{i, j, k}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 3 {
		t.Fatalf("rows = %d", len(grid))
	}
	for i := range grid {
		if len(grid[i]) != 5 {
			t.Fatalf("row %d has %d cols", i, len(grid[i]))
		}
		for j, c := range grid[i] {
			if c != [3]int{i, j, i*5 + j} {
				t.Fatalf("cell (%d,%d) = %v", i, j, c)
			}
		}
	}
}

func TestOffDiagonalEnumeration(t *testing.T) {
	// The k-th off-diagonal cell must match the row-major double loop
	// that the sequential PISA drivers run.
	for _, n := range []int{2, 3, 5, 15} {
		k := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				gi, gj := OffDiagonal(k, n)
				if gi != i || gj != j {
					t.Fatalf("n=%d k=%d: got (%d,%d), want (%d,%d)", n, k, gi, gj, i, j)
				}
				k++
			}
		}
	}
}

func TestCellSeedMatchesSequentialConvention(t *testing.T) {
	// Sequential drivers seed cell k with base+k+1 (the first cell
	// increments the base seed before running).
	if CellSeed(10, 0) != 11 || CellSeed(10, 4) != 15 {
		t.Fatal("CellSeed deviates from the sequential seed sequence")
	}
}

// countingCheckpoint wraps serialize.Checkpoint to count stores.
type countingCheckpoint struct {
	*serialize.Checkpoint
	mu     sync.Mutex
	stores int
}

func (c *countingCheckpoint) Store(k int, cell json.RawMessage) error {
	c.mu.Lock()
	c.stores++
	c.mu.Unlock()
	return c.Checkpoint.Store(k, cell)
}

func TestMapCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck := &countingCheckpoint{Checkpoint: serialize.NewCheckpoint(path)}

	// First run dies at cell 12: everything computed so far is durable.
	_, err := Map(20, Options{Workers: 1, Checkpoint: ck}, func(k int) (float64, error) {
		if k == 12 {
			return 0, errors.New("simulated crash")
		}
		return cellValue(k), nil
	})
	if err == nil {
		t.Fatal("crash swallowed")
	}
	firstStores := ck.stores
	if firstStores != 12 {
		t.Fatalf("first run stored %d cells, want 12", firstStores)
	}

	// Resume with a fresh store handle on the same file: the 12 finished
	// cells must be loaded, not recomputed, and the result must be
	// identical to an uncheckpointed run.
	resumed := &countingCheckpoint{Checkpoint: serialize.NewCheckpoint(path)}
	var mu sync.Mutex
	recomputed := map[int]bool{}
	out, err := Map(20, Options{Workers: 4, Checkpoint: resumed}, func(k int) (float64, error) {
		mu.Lock()
		recomputed[k] = true
		mu.Unlock()
		return cellValue(k), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 12; k++ {
		if recomputed[k] {
			t.Fatalf("cell %d recomputed despite checkpoint", k)
		}
	}
	for k := 0; k < 20; k++ {
		if out[k] != cellValue(k) {
			t.Fatalf("cell %d = %v, want %v", k, out[k], cellValue(k))
		}
	}
	if err := resumed.Remove(); err != nil {
		t.Fatal(err)
	}
	// A removed store is an empty store.
	cells, err := serialize.NewCheckpoint(path).Load()
	if err != nil || len(cells) != 0 {
		t.Fatalf("store not removed: %v, %v", cells, err)
	}
}

func TestMapCheckpointIgnoresOutOfRangeCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stale.ckpt")
	ck := serialize.NewCheckpoint(path)
	if _, err := ck.Load(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Store(99, json.RawMessage(`1.5`)); err != nil {
		t.Fatal(err)
	}
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := Map(3, Options{Checkpoint: serialize.NewCheckpoint(path)}, func(k int) (float64, error) {
		return float64(k), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range out {
		if v != float64(k) {
			t.Fatalf("cell %d = %v", k, v)
		}
	}
}
