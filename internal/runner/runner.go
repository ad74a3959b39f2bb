// Package runner is the bounded deterministic worker pool behind every
// experiment sweep. The paper's evaluation grids — the (dataset ×
// scheduler) benchmarking of Fig 2, the (target × base) PISA grids of
// Figs 4 and 10-19, the family and robustness sampling loops — are
// embarrassingly parallel, but trustworthy parallel evaluation must be
// provably identical to the sequential reference. runner guarantees that
// by construction:
//
//   - results are written by cell position, never by completion order;
//   - random seeds are derived from cell position (CellSeed), so the
//     stream a cell consumes does not depend on scheduling;
//   - workers only contend for the next index, never for cell data.
//
// Consequently Map returns bit-identical results for any worker count,
// including 1, which the determinism suite in package experiments
// asserts against hand-written sequential loops kept in its test file.
//
// Long sweeps can persist completed cells through the Checkpoint hook
// (implemented by serialize.Checkpoint): each finished cell is stored as
// JSON, and a resumed run skips every cell already on disk.
//
// Sweeps also scale past one process: Options.Include restricts a run to
// a subset of the cells — a static shard (ShardSpec.Owns) or a leased
// cell set — while seeds stay derived from the global cell position, so
// the union of the shards' checkpoint stores (serialize.MergeCheckpoints)
// is bit-identical to a single-process run.
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
)

// Options configures a Map sweep.
type Options struct {
	// Workers bounds the number of concurrent goroutines. 0 (or any
	// non-positive value) means GOMAXPROCS; 1 runs the cells strictly in
	// order on the calling pattern of a sequential loop.
	Workers int
	// Progress, when non-nil, is called after every completed cell with
	// the running completion count and the total cell count. Calls are
	// serialized and done is strictly increasing.
	Progress func(done, total int)
	// Checkpoint, when non-nil, persists completed cells and seeds a
	// resumed sweep: cells found in the store are decoded instead of
	// recomputed. Cell results must round-trip through encoding/json.
	Checkpoint Checkpoint
	// Include, when non-nil, restricts the sweep to the cells for which it
	// returns true: a static shard's slice (ShardSpec.Owns, set by
	// `-shard`) or the coordinator protocol's leased cell set
	// (internal/coord). It never changes what an included cell computes:
	// indices and seeds stay global, so a shard's or a lease's cell is
	// bit-identical to the same cell of a full run. Excluded cells keep
	// their zero values (unless the checkpoint store supplies them) and
	// are not counted in Progress totals.
	Include func(index int) bool
	// Context, when non-nil, aborts the sweep on cancellation: no new
	// cells are dispatched once the context is done, in-flight cells run
	// to completion (and are still checkpointed — a cancelled run leaves
	// a resumable store, never a corrupt one), and Map returns the
	// context's error. Cancellation is how a dispatched sweep propagates
	// a client disconnect down to the cell loop: the daemon cancels, the
	// worker's lease context fires, and the worker stops mid-lease
	// without delivering partial work it no longer owns.
	Context context.Context
	// OnCellError, when non-nil, turns per-cell failures from sweep
	// aborts into reports: a failing cell (error or recovered panic) is
	// passed to the callback, keeps its zero value, is not checkpointed,
	// and counts toward Progress; the sweep continues. Calls are
	// serialized by the pool. Checkpoint I/O failures still abort the
	// sweep — they are infrastructure errors, not cell results.
	OnCellError func(index int, err error)
}

// Owns reports whether this run computes cell k: the cell passes the
// Include filter. Drivers use it to tell a legitimately absent cell
// (another shard's, or outside the lease) from a missing result.
func (o Options) Owns(k int) bool {
	return o.Include == nil || o.Include(k)
}

// pool is the pool size Workers resolves to: non-positive means
// GOMAXPROCS.
func (o Options) pool() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// CellWorkers is the parallel width inside each cell of [0, n) this run
// owns: the pool shared evenly among them, at least 1, so a run owning
// fewer cells than workers (a small roster, a shard, a lease) gives the
// idle ones to its cells.
func (o Options) CellWorkers(n int) int {
	owned := 0
	for k := 0; k < n; k++ {
		if o.Owns(k) {
			owned++
		}
	}
	return max(1, o.pool()/max(1, owned))
}

// ShardSpec assigns one process its slice of a distributed sweep: a
// shard runs only the cells whose index k satisfies k % Count == Index.
// Cell indices — and with them CellSeed and the checkpoint keys — stay
// global, so every shard computes exactly the cells (and bit-exact
// values) the single-process run would, and the union of all Count
// shards covers the sweep with no overlap. The zero value disables
// sharding.
//
// A shard runs as Options{Include: spec.Owns}, and its Map returns a
// partial result: non-owned cells hold zero values (unless the
// checkpoint store already supplied them). Shards are combined through
// their checkpoint stores — run each shard with its own store, merge
// with serialize.MergeCheckpoints, and resume any complete run from the
// merged store.
type ShardSpec struct {
	Index int
	Count int
}

// Enabled reports whether the spec restricts the sweep (Count > 0).
// Count == 1 is a valid degenerate shard owning every cell.
func (s ShardSpec) Enabled() bool { return s.Count > 0 }

// Owns reports whether cell k belongs to this shard. A disabled spec
// owns every cell.
func (s ShardSpec) Owns(k int) bool { return !s.Enabled() || k%s.Count == s.Index }

// String renders the spec in the I/C form ParseShard accepts.
func (s ShardSpec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// ParseShard parses the "index/count" form used by CLI -shard flags
// (e.g. "2/8" is the third of eight shards) into an enabled spec. It is
// the one place a spec is validated: the count must be at least 1 and
// the index inside [0, count).
func ParseShard(text string) (ShardSpec, error) {
	idx, cnt, ok := strings.Cut(text, "/")
	if !ok {
		return ShardSpec{}, fmt.Errorf("runner: shard %q is not of the form index/count (e.g. 2/8)", text)
	}
	i, err := strconv.Atoi(idx)
	if err != nil {
		return ShardSpec{}, fmt.Errorf("runner: shard index %q: %v", idx, err)
	}
	c, err := strconv.Atoi(cnt)
	if err != nil {
		return ShardSpec{}, fmt.Errorf("runner: shard count %q: %v", cnt, err)
	}
	if c < 1 {
		return ShardSpec{}, fmt.Errorf("runner: shard count must be at least 1")
	}
	if i < 0 || i >= c {
		return ShardSpec{}, fmt.Errorf("runner: shard index %d outside [0, %d)", i, c)
	}
	return ShardSpec{Index: i, Count: c}, nil
}

// Checkpoint is the persistence hook behind Options.Checkpoint.
// serialize.Checkpoint is the file-backed implementation.
type Checkpoint interface {
	// Load returns the previously stored cells, keyed by cell index. A
	// store that does not exist yet returns an empty (or nil) map.
	Load() (map[int]json.RawMessage, error)
	// Store records one completed cell; it is durable when Store returns.
	// It may be called concurrently.
	Store(index int, cell json.RawMessage) error
}

// CellError reports the failure of one cell of a sweep. With more than
// one worker several cells may fail before the pool stops; Map returns
// the failure with the lowest cell index, which for one worker is
// exactly the error the sequential loop would have returned.
type CellError struct {
	Index int
	Err   error
}

// Error implements error.
func (e *CellError) Error() string { return fmt.Sprintf("runner: cell %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying cell failure to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// CellSeed derives a cell's random seed from the sweep's base seed and
// the cell's sequential position. It matches the seed sequence of a
// sequential loop (base+1 for the first cell, base+2 for the second,
// ...), which is what makes parallel grids bit-identical to one.
func CellSeed(base uint64, index int) uint64 {
	return base + uint64(index) + 1
}

// OffDiagonal maps a sequential position k to the k-th off-diagonal cell
// (i, j) of an n×n grid in row-major order — the enumeration every PISA
// grid uses (the diagonal pits a scheduler against itself and is
// skipped). There are n·(n-1) such cells.
func OffDiagonal(k, n int) (i, j int) {
	i = k / (n - 1)
	j = k % (n - 1)
	if j >= i {
		j++
	}
	return i, j
}

// Map evaluates fn for every cell index in [0, n) using a bounded worker
// pool and returns the results in index order. Panics inside fn are
// recovered and reported as that cell's error. After the first failure
// no new cells are dispatched; the lowest-indexed failure is returned as
// a *CellError. Results are independent of Options.Workers.
func Map[T any](n int, opts Options, fn func(index int) (T, error)) ([]T, error) {
	return MapState(n, opts,
		func() struct{} { return struct{}{} },
		func(index int, _ struct{}) (T, error) { return fn(index) })
}

// MapState is Map with per-worker state: newState runs once in each
// worker goroutine and the value it returns is passed to every cell that
// worker executes. It exists so sweeps can reuse expensive per-worker
// buffers — a scheduler.Scratch, arena allocations — with zero
// cross-worker sharing by construction (each worker owns its state; no
// cell ever sees another worker's). State must not influence results:
// cells still receive position-derived seeds, so output remains
// bit-identical for every worker count.
func MapState[T, S any](n int, opts Options, newState func() S, fn func(index int, state S) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}

	// done marks cells this process will not compute: another shard's
	// (or another lease's) cells up front, then everything the checkpoint
	// already holds. total counts the cells this run owns — the
	// denominator Progress reports.
	done := make([]bool, n)
	completed := 0
	total := n
	if opts.Include != nil {
		for k := 0; k < n; k++ {
			if !opts.Owns(k) {
				done[k] = true
				total--
			}
		}
	}
	if opts.Checkpoint != nil {
		cells, err := opts.Checkpoint.Load()
		if err != nil {
			return nil, fmt.Errorf("runner: checkpoint load: %w", err)
		}
		for k, raw := range cells {
			if k < 0 || k >= n {
				continue // a stale store from a differently-sized sweep
			}
			// Cells outside this shard still decode (a merged store must
			// yield the full result) but never count as shard progress.
			if err := json.Unmarshal(raw, &out[k]); err != nil {
				return nil, fmt.Errorf("runner: checkpoint cell %d: %w", k, err)
			}
			if !done[k] {
				done[k] = true
				completed++
			}
		}
	}
	// The baseline call: every sweep with owned cells reports its
	// starting position exactly once before any cell computes — the cells
	// a resumed run loaded from the store, or a bare 0. Consumers
	// (ProgressPrinter, LeaseProgress) rely on the first call of a sweep
	// being this baseline, never a computed cell.
	if opts.Progress != nil && total > 0 {
		opts.Progress(completed, total)
	}

	workers := min(opts.pool(), total)

	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next int
		errs []*CellError
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := newState()
			for {
				if opts.Context != nil && opts.Context.Err() != nil {
					return
				}
				mu.Lock()
				for next < n && done[next] {
					next++
				}
				if len(errs) > 0 || next >= n {
					mu.Unlock()
					return
				}
				k := next
				next++
				mu.Unlock()

				v, err := runCell(k, state, fn)
				if err != nil && opts.OnCellError != nil {
					// Graceful degradation: the failure is reported, the
					// cell stays zero-valued and unstored, and the sweep
					// keeps going. The cell still counts as handled so a
					// lease's progress can reach its total.
					mu.Lock()
					opts.OnCellError(k, err)
					completed++
					if opts.Progress != nil {
						opts.Progress(completed, total)
					}
					mu.Unlock()
					continue
				}
				if err == nil && opts.Checkpoint != nil {
					var raw json.RawMessage
					if raw, err = json.Marshal(v); err == nil {
						err = opts.Checkpoint.Store(k, raw)
					}
				}
				mu.Lock()
				if err != nil {
					errs = append(errs, &CellError{Index: k, Err: err})
					mu.Unlock()
					return
				}
				out[k] = v
				completed++
				if opts.Progress != nil {
					opts.Progress(completed, total)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if len(errs) > 0 {
		first := errs[0]
		for _, e := range errs[1:] {
			if e.Index < first.Index {
				first = e
			}
		}
		return nil, first
	}
	if opts.Context != nil {
		if err := opts.Context.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runCell invokes fn for one cell, converting a panic into an error so a
// single misbehaving cell cannot take down the whole sweep (or leak the
// pool's other workers).
func runCell[T, S any](k int, state S, fn func(int, S) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return fn(k, state)
}
