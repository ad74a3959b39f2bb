package core

import (
	"math"
	"sync"
	"sync/atomic"

	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/scheduler"
)

// Intra-cell parallelism.
//
// The sweeps are parallel across cells (runner.Map) and each cell's
// inner loop is incremental and cached, but a single Run or RunGA was
// still strictly sequential. This file closes that gap without giving
// up determinism-by-construction: results are bit-identical for every
// Workers value, proven against the sequential loops and the test-only
// reference implementations (reference_test.go,
// genetic_reference_test.go) by parallel_test.go.
//
// Ownership rule (the PR 2 scratch rule, extended): every chain/worker
// owns its scheduling state outright — a scheduler.Scratch from the
// pool below, the perturbState parked in that scratch, an evaluator,
// and an incumbent-best instance buffer. Nothing mutable is shared
// between worker goroutines; the only cross-goroutine writes are to
// disjoint per-restart (or per-offspring) slots of preallocated result
// slices, and every worker is joined before the merge reads them.
//
// Determinism rule: all RNG consumption that the sequential loop
// performs on one stream stays on the calling goroutine, in the
// sequential order (the per-restart root.Split()s; the GA's selection,
// crossover and mutation draws). Workers only consume per-chain
// sub-streams or no randomness at all. The merge is canonical: chains
// fold in restart order with the sequential loop's exact comparison
// (strict improvement, so ties keep the lowest restart index), errors
// surface from the lowest-indexed failing chain, and buffered
// OnImprove calls replay in restart order on the calling goroutine.

// workerPoolExtKey parks the per-worker scratch pool in the parent
// scratch's extension state, so repeated parallel Runs through one
// sweep-worker scratch reuse warm tables instead of reallocating.
const workerPoolExtKey = "core.workers"

type workerPool struct{ scratches []*scheduler.Scratch }

// workerScratches returns n scratches for worker goroutines. With a
// parent scratch the pool lives (and grows lazily) in the parent's Ext
// state and follows its one-per-worker ownership: only the goroutine
// owning the parent may call this, and the returned scratches must not
// outlive the call's workers — both hold because Run/RunGA join every
// worker before returning. A nil parent gets fresh scratches.
func workerScratches(parent *scheduler.Scratch, n int) []*scheduler.Scratch {
	if parent == nil {
		out := make([]*scheduler.Scratch, n)
		for i := range out {
			out[i] = scheduler.NewScratch()
		}
		return out
	}
	pool := parent.Ext(workerPoolExtKey, func() any { return new(workerPool) }).(*workerPool)
	for len(pool.scratches) < n {
		pool.scratches = append(pool.scratches, scheduler.NewScratch())
	}
	return pool.scratches[:n]
}

// improvePoint buffers one OnImprove call for ordered replay.
type improvePoint struct {
	iter  int
	ratio float64
}

// chainOutcome is one restart's result slot, written only by the worker
// that ran the chain and read only after the join.
type chainOutcome struct {
	ratio    float64
	evals    int
	trace    []TracePoint
	improves []improvePoint
	err      error
}

// runParallel is Run's Workers > 1 path: restart chains anneal
// concurrently and merge canonically. See the file comment for the
// ownership and determinism rules it implements.
func runParallel(target, baseline scheduler.Scheduler, opts Options, p PerturbOptions, root *rng.RNG, workers int) (*Result, error) {
	// Pre-split every per-restart stream in restart order on this
	// goroutine: chain k consumes exactly the stream the sequential
	// loop's k-th root.Split() yields, regardless of which worker runs
	// it or when.
	streams := make([]*rng.RNG, opts.Restarts)
	for i := range streams {
		streams[i] = root.Split()
	}
	outcomes := make([]chainOutcome, opts.Restarts)
	scratches := workerScratches(opts.Scratch, workers)

	// Each worker folds its own chains as the sequential loop would:
	// strict improvement over increasing restart indices, so the
	// worker-local winner is the lowest-indexed maximum it saw. best and
	// the chainState's buffer are swapped (not copied) on improvement.
	type workerBest struct {
		ratio   float64
		restart int
		inst    *graph.Instance
	}
	bests := make([]workerBest, workers)

	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cs := newChainState(newEvaluator(target, baseline, scratches[w]), p)
			wb := &bests[w]
			wb.ratio, wb.restart = math.Inf(-1), -1
			for {
				k := int(atomic.AddInt64(&next, 1))
				if k >= opts.Restarts {
					return
				}
				out := &outcomes[k]
				var trace []TracePoint
				if opts.RecordTrace {
					trace = make([]TracePoint, 0, opts.MaxIters)
				}
				var onImprove func(int, float64)
				if opts.OnImprove != nil {
					onImprove = func(iter int, ratio float64) {
						out.improves = append(out.improves, improvePoint{iter, ratio})
					}
				}
				out.ratio, out.evals, out.trace, out.err = cs.runChain(opts, p, k, streams[k], trace, onImprove)
				if out.err == nil && out.ratio > wb.ratio {
					wb.ratio, wb.restart = out.ratio, k
					wb.inst, cs.best = cs.best, wb.inst
				}
			}
		}(w)
	}
	wg.Wait()

	// Canonical merge, all on the calling goroutine: fold outcomes in
	// restart order — replay buffered improvements, surface the lowest-
	// indexed chain error (the one the sequential loop would have hit
	// first), and accumulate counts, ratios and trace exactly as the
	// sequential fold does.
	res := &Result{
		BestRatio:     math.Inf(-1),
		RestartRatios: make([]float64, 0, opts.Restarts),
	}
	if opts.RecordTrace {
		res.Trace = make([]TracePoint, 0, tracePrealloc(opts.Restarts, opts.MaxIters))
	}
	for k := range outcomes {
		out := &outcomes[k]
		if opts.OnImprove != nil {
			for _, im := range out.improves {
				opts.OnImprove(im.iter, im.ratio)
			}
		}
		res.Evaluations += out.evals
		if out.err != nil {
			return nil, out.err
		}
		res.Trace = append(res.Trace, out.trace...)
		res.RestartRatios = append(res.RestartRatios, out.ratio)
	}
	var winner *workerBest
	for w := range bests {
		wb := &bests[w]
		if wb.restart < 0 {
			continue
		}
		if winner == nil || wb.ratio > winner.ratio ||
			(wb.ratio == winner.ratio && wb.restart < winner.restart) {
			winner = wb
		}
	}
	if winner != nil {
		res.Best, res.BestRatio = winner.inst.Clone(), winner.ratio
	}
	_ = res.Best.Validate() // best-effort sanity; instances stay valid by construction
	return res, nil
}

// gaPool runs the GA's fitness fan-out: one evaluator per worker, kept
// for the whole RunGA so schedule buffers and tables stay warm across
// generations.
type gaPool struct {
	evs []*evaluator
}

func newGAPool(target, baseline scheduler.Scheduler, scratches []*scheduler.Scratch) *gaPool {
	evs := make([]*evaluator, len(scratches))
	for i, scr := range scratches {
		evs[i] = newEvaluator(target, baseline, scr)
	}
	return &gaPool{evs: evs}
}

// forEach runs fn(w, k) for every k in [lo, hi) across the pool's
// workers, k handed out dynamically. fn must confine its writes to
// index-k slots; forEach joins every worker before returning.
func (gp *gaPool) forEach(lo, hi int, fn func(w, k int)) {
	next := int64(lo) - 1
	var wg sync.WaitGroup
	for w := range gp.evs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(atomic.AddInt64(&next, 1))
				if k >= hi {
					return
				}
				fn(w, k)
			}
		}(w)
	}
	wg.Wait()
}

// firstErr returns the lowest-indexed error in errs[lo:hi] — the one
// the sequential loop would have returned first.
func firstErr(errs []error, lo, hi int) error {
	for k := lo; k < hi; k++ {
		if errs[k] != nil {
			return errs[k]
		}
	}
	return nil
}

// runGAParallel is RunGA's Workers > 1 path. Each generation splits in
// two: every RNG draw — tournaments, crossover mixing, the mutation
// decision, the mutation operator itself — happens on this goroutine in
// the sequential loop's exact order (the table build the sequential
// loop interleaves between the mutation decision and the mutation
// consumes no randomness, so hoisting the draws changes no stream);
// then fitness fans out across the worker pool, each worker fully
// rebuilding its child's tables. The full rebuild is bit-identical to
// the sequential loop's build-then-delta-patch by the graph.Tables
// incremental contract, so ratios — and therefore selection, ordering
// and the final winner — match the sequential run bit for bit.
func runGAParallel(target, baseline scheduler.Scheduler, opts GAOptions, p PerturbOptions, r *rng.RNG, workers int) (*Result, error) {
	scr := opts.Scratch
	if scr == nil {
		scr = scheduler.NewScratch()
	}
	ps := scr.Ext(pisaExtKey, func() any { return new(perturbState) }).(*perturbState)
	ps.ops = append(ps.ops[:0], enabledOps(p)...)
	pool := newGAPool(target, baseline, workerScratches(scr, workers))
	res := &Result{}

	n := opts.PopulationSize
	ratios := make([]float64, n)
	errs := make([]error, n)

	// Initial population: the per-individual sub-stream splits happen
	// here in population order (identical draws to the sequential loop);
	// generation and evaluation fan out. InitialInstance must be safe
	// for concurrent calls, as in the annealer's parallel path.
	subs := make([]*rng.RNG, n)
	for i := range subs {
		subs[i] = r.Split()
	}
	pop := make([]individual, n)
	pool.forEach(0, n, func(w, k int) {
		inst := prepare(opts.InitialInstance(subs[k]), p)
		pop[k].inst = inst
		ratios[k], errs[k] = pool.evs[w].ratio(inst)
	})
	if err := firstErr(errs, 0, n); err != nil {
		return nil, err
	}
	for i := range pop {
		pop[i].ratio = ratios[i]
		res.Evaluations++
	}

	byFitness := func() { sortByFitness(pop) }
	byFitness()

	tournament := func() individual {
		best := pop[r.Intn(len(pop))]
		for k := 1; k < opts.TournamentK; k++ {
			c := pop[r.Intn(len(pop))]
			if c.ratio > best.ratio {
				best = c
			}
		}
		return best
	}

	// The same two ping-pong banks as the sequential loop; the spare
	// bank doubles as the per-offspring slot array the workers write
	// through (disjoint indices, joined before any read).
	next := make([]individual, n)
	spare := make([]*graph.Instance, n)

	for gen := 0; gen < opts.Generations; gen++ {
		m := 0
		for ; m < opts.Elite; m++ {
			spare[m] = copyInto(spare[m], pop[m].inst)
			next[m] = individual{inst: spare[m], ratio: pop[m].ratio}
		}
		// Phase 1 — all randomness, sequentially.
		for ; m < n; m++ {
			a, b := tournament(), tournament()
			spare[m] = crossoverInto(spare[m], a, b, r)
			if r.Float64() < opts.MutationRate {
				perturbInPlace(spare[m], r, p, ps)
			}
		}
		// Phase 2 — fitness, fanned out.
		pool.forEach(opts.Elite, n, func(w, k int) {
			ratios[k], errs[k] = pool.evs[w].ratio(spare[k])
		})
		if err := firstErr(errs, opts.Elite, n); err != nil {
			return nil, err
		}
		for k := opts.Elite; k < n; k++ {
			res.Evaluations++
			next[k] = individual{inst: spare[k], ratio: ratios[k]}
		}
		for i := range pop {
			spare[i] = pop[i].inst
		}
		pop, next = next, pop
		byFitness()
	}

	res.Best = pop[0].inst.Clone()
	res.BestRatio = pop[0].ratio
	res.RestartRatios = []float64{pop[0].ratio}
	return res, nil
}
