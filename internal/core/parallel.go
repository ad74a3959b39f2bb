package core

import (
	"sync"
	"sync/atomic"

	"saga/internal/scheduler"
)

// Intra-cell parallelism.
//
// The sweeps are parallel across cells (runner.Map); Run and RunGA can
// also spread one cell's work — restart chains, offspring fitness —
// over Options.Workers / GAOptions.Workers goroutines. There is one
// code path per method at every width: fanOut runs worker 0 on the
// calling goroutine, so a width of 1 spawns nothing and runs exactly the
// loop the wider widths run. Results are bit-identical for every
// Workers value, proven against the test-only reference implementations
// (reference_test.go, genetic_reference_test.go) by differential_test.go.
//
// Ownership rule (the PR 2 scratch rule, extended): every worker owns
// its scheduling state outright — worker 0 the caller's Scratch, the
// others a scheduler.Scratch from the pool below — plus the
// perturbState parked in that scratch, an evaluator, and an
// incumbent-best instance buffer. Nothing mutable is shared between
// worker goroutines; the only cross-goroutine writes are to disjoint
// per-restart (or per-offspring) slots of preallocated result slices,
// and every worker is joined before the merge reads them.
//
// Determinism rule: all RNG consumption on the root stream stays on the
// calling goroutine, in one fixed order (the per-restart root.Split()s;
// the GA's selection, crossover and mutation draws). Workers only
// consume per-chain sub-streams or no randomness at all. The merge is
// canonical: chains fold in restart order with strict improvement, so
// ties keep the lowest restart index, and errors surface from the
// lowest-indexed failing chain.

// workerPoolExtKey parks the per-worker scratch pool in the parent
// scratch's extension state, so repeated wide Runs through one
// sweep-worker scratch reuse warm tables instead of reallocating.
const workerPoolExtKey = "core.workers"

type workerPool struct{ scratches []*scheduler.Scratch }

// workerScratches returns n scratches, one per worker: worker 0 gets
// the parent itself (a fresh one when nil) and workers 1..n−1 get the
// pool that lives (and grows lazily) in the parent's Ext state. The
// pool follows the parent's one-per-worker ownership: only the
// goroutine owning the parent may call this, and the returned scratches
// must not outlive the call's workers — both hold because Run/RunGA
// join every worker before returning.
func workerScratches(parent *scheduler.Scratch, n int) []*scheduler.Scratch {
	if parent == nil {
		parent = scheduler.NewScratch()
	}
	out := make([]*scheduler.Scratch, n)
	out[0] = parent
	if n > 1 {
		pool := parent.Ext(workerPoolExtKey, func() any { return new(workerPool) }).(*workerPool)
		for len(pool.scratches) < n-1 {
			pool.scratches = append(pool.scratches, scheduler.NewScratch())
		}
		copy(out[1:], pool.scratches)
	}
	return out
}

// clampWorkers resolves a Workers option to [1, n]: at most one worker
// per unit of work (restart or individual), and at least the caller.
func clampWorkers(workers, n int) int {
	return max(1, min(workers, n))
}

// fanOut runs fn(w, k) for every k in [lo, hi) across workers workers,
// k handed out dynamically, so each worker sees increasing k. Worker 0
// is the calling goroutine and workers 1..workers−1 are spawned, so one
// worker runs everything inline. fn must confine its writes to index-k
// slots and worker-w state; fanOut joins every worker before returning,
// even when fn panics on the caller.
func fanOut(workers, lo, hi int, fn func(w, k int)) {
	var next atomic.Int64
	next.Store(int64(lo) - 1)
	work := func(w int) {
		for {
			k := int(next.Add(1))
			if k >= hi {
				return
			}
			fn(w, k)
		}
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
}

// firstErr returns the lowest-indexed error in errs[lo:hi] — the one a
// loop over k in order would have returned first.
func firstErr(errs []error, lo, hi int) error {
	for k := lo; k < hi; k++ {
		if errs[k] != nil {
			return errs[k]
		}
	}
	return nil
}
