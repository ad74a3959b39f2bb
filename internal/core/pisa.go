// Package core implements PISA — Problem-instance Identification using
// Simulated Annealing — the paper's primary contribution (Section VI).
//
// Given a target scheduler A and a baseline scheduler B, PISA searches
// the space of problem instances for one that maximizes the makespan
// ratio m(S_A)/m(S_B), i.e. an instance on which A maximally
// under-performs B. The search is the simulated annealing loop of
// Algorithm 1: perturb the instance, keep it if the ratio improved,
// otherwise keep it with a temperature-controlled probability, and cool.
//
// Six perturbation operators match Section VI; the application-specific
// mode of Section VII restricts them (no structural changes, weights
// rescaled to observed ranges, links pinned) so the search stays inside a
// family of realistic instances.
package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// DefaultOptions returns the paper's annealing parameters: Tmax = 10,
// Tmin = 0.1, α = 0.99, Imax = 1000, 5 restarts.
func DefaultOptions() Options {
	return Options{
		TMax:     10,
		TMin:     0.1,
		Alpha:    0.99,
		MaxIters: 1000,
		Restarts: 5,
		Seed:     1,
	}
}

// Options configures a PISA run.
type Options struct {
	// TMax, TMin and Alpha control the cooling schedule; MaxIters caps
	// iterations per restart.
	TMax, TMin, Alpha float64
	MaxIters          int
	// Restarts is the number of independent annealing runs, each from a
	// freshly generated initial instance.
	Restarts int
	// Seed drives all randomness (restart sub-streams are derived).
	Seed uint64
	// InitialInstance, if non-nil, generates the starting instance for
	// each restart. Nil means datasets.InitialPISAInstance-style chains
	// must be supplied by the caller via this hook.
	InitialInstance func(r *rng.RNG) *graph.Instance
	// Perturb configures the perturbation operators. Zero value =
	// Section VI defaults via DefaultPerturb.
	Perturb PerturbOptions
	// RecordTrace, when set, captures one TracePoint per candidate
	// evaluation into Result.Trace — the data behind annealing-curve
	// plots and convergence analysis.
	RecordTrace bool
	// Workers bounds how many restart chains anneal concurrently; it is
	// clamped to [1, Restarts]. The calling goroutine is worker 0, so 0
	// or 1 spawns no goroutine — the right choice inside an
	// already-parallel sweep (runner.Map gives each cell one goroutine;
	// nesting more would oversubscribe). Results are bit-identical for
	// every value: chain k consumes the root stream's k-th Split, owns
	// private scheduling state, and the chains merge canonically in
	// restart order (argmax ratio, ties to the lowest restart index).
	// With Workers > 1, InitialInstance must be safe for concurrent calls
	// (the stock dataset generators are pure).
	Workers int
	// Scratch, when non-nil, is the reusable per-worker scheduling state
	// (builder, precomputed tables, rank buffers) threaded through every
	// candidate evaluation. Nil allocates a private one per Run. Parallel
	// sweeps pass one scratch per worker (runner.MapState) so nothing is
	// shared across goroutines; the scratch never affects results.
	Scratch *scheduler.Scratch
}

// TracePoint is one step of the annealing search.
type TracePoint struct {
	Restart     int
	Iteration   int
	Temperature float64
	Ratio       float64 // the candidate's makespan ratio
	Best        float64 // incumbent best after this step
	Accepted    bool    // candidate became the current state
}

// PerturbOptions bounds the perturbation operators.
type PerturbOptions struct {
	// Step is the maximum absolute weight change per perturbation
	// (paper: 0.1 — one tenth of the weight range).
	Step float64
	// TaskCost, DepCost, Speed and Link are the [min, max] ranges weights
	// are clamped to. The paper's Section VI search uses [0, 1] for all.
	TaskCost, DepCost, Speed, Link [2]float64
	// FixSpeeds pins node speeds (set for schedulers designed for
	// homogeneous nodes: ETF, FCP, FLB).
	FixSpeeds bool
	// FixLinks pins link strengths (set for schedulers designed for
	// homogeneous links: BIL, GDL, FCP, FLB — and for the Section VII
	// application-specific mode, which fixes links to enforce a CCR).
	FixLinks bool
	// FixStructure disables the add/remove-dependency operators
	// (Section VII application-specific mode).
	FixStructure bool
	// KeepPinnedWeights keeps the initial instance's pinned speeds/links
	// as generated instead of resetting them to 1. Section VI resets
	// pinned weights to 1 (the zero value); the Section VII
	// application-specific mode sets this so the CCR-derived link
	// strengths survive.
	KeepPinnedWeights bool
	// MinNetWeight floors network weights so speeds and strengths stay
	// positive; defaults to 0.01.
	MinNetWeight float64
}

// DefaultPerturb returns the Section VI perturbation configuration:
// step 0.1, all weights in [0, 1], full structural freedom.
func DefaultPerturb() PerturbOptions {
	return PerturbOptions{
		Step:     0.1,
		TaskCost: [2]float64{0, 1},
		DepCost:  [2]float64{0, 1},
		Speed:    [2]float64{0, 1},
		Link:     [2]float64{0, 1},
	}
}

func (p PerturbOptions) withDefaults() PerturbOptions {
	if p.Step == 0 {
		p.Step = 0.1
	}
	zero := [2]float64{}
	if p.TaskCost == zero {
		p.TaskCost = [2]float64{0, 1}
	}
	if p.DepCost == zero {
		p.DepCost = [2]float64{0, 1}
	}
	if p.Speed == zero {
		p.Speed = [2]float64{0, 1}
	}
	if p.Link == zero {
		p.Link = [2]float64{0, 1}
	}
	if p.MinNetWeight == 0 {
		p.MinNetWeight = 0.01
	}
	return p
}

// Result is the outcome of a PISA run.
type Result struct {
	// Best is the instance maximizing the makespan ratio of the target
	// over the baseline; BestRatio is that ratio.
	Best      *graph.Instance
	BestRatio float64
	// RestartRatios records the best ratio achieved by each restart.
	RestartRatios []float64
	// Evaluations counts scheduler invocations (two per candidate).
	Evaluations int
	// Trace holds per-candidate annealing steps when
	// Options.RecordTrace is set.
	Trace []TracePoint
}

// TraceCSV renders the recorded trace as CSV (one row per candidate).
func (r *Result) TraceCSV() string {
	var b strings.Builder
	b.WriteString("restart,iteration,temperature,ratio,best,accepted\n")
	for _, p := range r.Trace {
		fmt.Fprintf(&b, "%d,%d,%.6f,%.6f,%.6f,%t\n",
			p.Restart, p.Iteration, p.Temperature, p.Ratio, p.Best, p.Accepted)
	}
	return b.String()
}

// pisaExtKey is the scheduler.Scratch.Ext key under which Run (and
// RunGA, which shares the same perturbation machinery) keeps its
// per-worker perturbState (undo log, enabled-op set, reachability
// buffers), following the PR 2 ownership rule: per-worker state lives
// in the worker's Scratch, never in shared or global storage.
const pisaExtKey = "core.pisa"

// maxTracePrealloc caps the up-front capacity of a chain's trace and of
// Result.Trace at 2^20 trace points (48 MiB of TracePoints).
// Preallocating keeps the hot loop's appends growth-free for every sane
// budget, but the budget is caller-controlled: absurd flag values must
// not turn into a multi-gigabyte allocation (or an int overflow) before
// the first iteration runs. Beyond the cap, append grows the slice the
// ordinary way — correct, just not allocation-free.
const maxTracePrealloc = 1 << 20

// tracePrealloc returns the overflow-safe Trace capacity for a budget;
// both arguments must already be validated positive.
func tracePrealloc(restarts, maxIters int) int {
	if restarts > maxTracePrealloc/maxIters {
		return maxTracePrealloc
	}
	return restarts * maxIters
}

// chainTracePrealloc is one chain's up-front Trace capacity: the points
// it records, capped at maxTracePrealloc. A chain stops at MaxIters or
// once cooling reaches TMin, whichever comes first, so this replays
// runChain's temperature schedule instead of trusting a MaxIters the
// schedule may never reach. Valid options make it at least 1.
func chainTracePrealloc(opts Options) int {
	limit := min(opts.MaxIters, maxTracePrealloc)
	n := 0
	for temp := opts.TMax; temp > opts.TMin && n < limit; temp *= opts.Alpha {
		n++
	}
	return n
}

// checkOptions validates an annealing configuration; Run and the
// test-only RunReference share it so the two loops reject identical
// inputs with identical errors.
func checkOptions(opts Options) error {
	if opts.InitialInstance == nil {
		return errors.New("core: Options.InitialInstance is required")
	}
	if opts.MaxIters <= 0 || opts.Restarts <= 0 {
		return errors.New("core: MaxIters and Restarts must be positive")
	}
	if !(opts.Alpha > 0 && opts.Alpha < 1) || !(opts.TMax > opts.TMin) || opts.TMin <= 0 ||
		math.IsInf(opts.TMax, 0) {
		return fmt.Errorf("core: invalid cooling schedule (TMax=%v, TMin=%v, Alpha=%v)",
			opts.TMax, opts.TMin, opts.Alpha)
	}
	return checkPerturb(opts.Perturb)
}

// checkPerturb validates perturbation bounds (shared with the GA):
// non-finite or negative steps, inverted weight ranges, and NaN floors
// previously produced silently degenerate searches — weights stuck at a
// clamp boundary, or NaN ratios poisoning every comparison.
func checkPerturb(p PerturbOptions) error {
	if p.Step < 0 || math.IsNaN(p.Step) || math.IsInf(p.Step, 0) {
		return fmt.Errorf("core: invalid perturbation step %v", p.Step)
	}
	ranges := [...]struct {
		name string
		r    [2]float64
	}{
		{"TaskCost", p.TaskCost}, {"DepCost", p.DepCost},
		{"Speed", p.Speed}, {"Link", p.Link},
	}
	for _, x := range ranges {
		if math.IsNaN(x.r[0]) || math.IsNaN(x.r[1]) ||
			math.IsInf(x.r[0], 0) || math.IsInf(x.r[1], 0) || x.r[0] > x.r[1] {
			return fmt.Errorf("core: invalid %s range [%v, %v]", x.name, x.r[0], x.r[1])
		}
	}
	if p.MinNetWeight < 0 || math.IsNaN(p.MinNetWeight) || math.IsInf(p.MinNetWeight, 0) {
		return fmt.Errorf("core: invalid MinNetWeight %v", p.MinNetWeight)
	}
	return nil
}

// Run executes PISA for target scheduler A against baseline B. The
// result's Best instance maximizes m(S_A)/m(S_B) over the search.
//
// The inner loop mutates the current instance in place: each iteration
// applies one perturbation operator directly to cur, patches the
// scratch's precomputed cost tables incrementally (graph.Tables
// Update*/AddDep/RemoveDep — never a full rebuild), evaluates, and on
// rejection rolls the mutation back through the undo log. Results are
// bit-identical to the copy-and-rebuild implementation it replaced,
// kept as the oracle RunReference in reference_test.go;
// incremental_test.go proves it across perturbation modes and scheduler
// pairs. Once warm, the steady-state accept/reject
// cycle performs zero heap allocations.
//
// Restart chains run through fanOut on Options.Workers workers, the
// caller being worker 0; see parallel.go for the ownership and
// determinism rules that make every width bit-identical.
func Run(target, baseline scheduler.Scheduler, opts Options) (*Result, error) {
	if err := checkOptions(opts); err != nil {
		return nil, err
	}
	p := opts.Perturb.withDefaults()
	workers := clampWorkers(opts.Workers, opts.Restarts)
	// Split every restart's stream off the root in restart order on this
	// goroutine: chain k consumes the k-th sub-stream whichever worker
	// runs it, and whenever.
	root := rng.New(opts.Seed)
	streams := make([]*rng.RNG, opts.Restarts)
	for k := range streams {
		streams[k] = root.Split()
	}
	chains := make([]*chainState, workers)
	for w, scr := range workerScratches(opts.Scratch, workers) {
		chains[w] = newChainState(newEvaluator(target, baseline, scr), p)
	}
	var traceCap int
	if opts.RecordTrace {
		traceCap = chainTracePrealloc(opts)
	}

	outcomes := make([]chainOutcome, opts.Restarts)
	fanOut(workers, 0, opts.Restarts, func(w, k int) {
		cs, out := chains[w], &outcomes[k]
		if opts.RecordTrace {
			// The chain's full capacity up front: its appends never
			// trigger growth (each would copy the whole trace so far).
			out.trace = make([]TracePoint, 0, traceCap)
		}
		out.ratio, out.evals, out.trace, out.err = cs.runChain(opts, p, k, streams[k], out.trace)
		// A worker sees its chains in increasing k, so folding with strict
		// improvement leaves it the lowest-indexed maximum it ran. The
		// best buffer is swapped, not copied.
		if out.err == nil && out.ratio > cs.winRatio {
			cs.winRatio, cs.winRestart = out.ratio, k
			cs.win, cs.best = cs.best, cs.win
		}
	})

	// Canonical merge on the calling goroutine: fold outcomes in restart
	// order, surfacing the lowest-indexed chain error, then pick the
	// workers' winner with ties to the lowest restart.
	res := &Result{
		BestRatio:     math.Inf(-1),
		RestartRatios: make([]float64, 0, opts.Restarts),
	}
	if opts.RecordTrace {
		res.Trace = make([]TracePoint, 0, tracePrealloc(opts.Restarts, traceCap))
	}
	for k := range outcomes {
		out := &outcomes[k]
		res.Evaluations += out.evals
		if out.err != nil {
			return nil, out.err
		}
		res.Trace = append(res.Trace, out.trace...)
		res.RestartRatios = append(res.RestartRatios, out.ratio)
	}
	var win *chainState
	for _, cs := range chains {
		if cs.winRestart >= 0 && (win == nil || cs.winRatio > win.winRatio ||
			cs.winRatio == win.winRatio && cs.winRestart < win.winRestart) {
			win = cs
		}
	}
	if win != nil {
		res.Best, res.BestRatio = win.win.Clone(), win.winRatio
	}
	return res, nil
}

// chainOutcome is one restart's result slot, written only by the worker
// that ran the chain and read only after the join.
type chainOutcome struct {
	ratio float64
	evals int
	trace []TracePoint
	err   error
}

// chainState is the per-worker annealing machinery one goroutine owns:
// the evaluator (scratch, tables, schedule buffers), the perturbation
// undo state parked in that scratch, the incumbent-best buffer every
// chain it runs reuses, and the best chain it has run so far (win, at
// winRatio from restart winRestart; −1 before any).
type chainState struct {
	ev   *evaluator
	ps   *perturbState
	best *graph.Instance

	win        *graph.Instance
	winRatio   float64
	winRestart int
}

func newChainState(ev *evaluator, p PerturbOptions) *chainState {
	ps := ev.scr.Ext(pisaExtKey, func() any { return new(perturbState) }).(*perturbState)
	ps.ops = append(ps.ops[:0], enabledOps(p)...)
	return &chainState{ev: ev, ps: ps, winRatio: math.Inf(-1), winRestart: -1}
}

// runChain anneals one restart — the body of Algorithm 1 for a single
// chain: generate the initial instance from the chain's own sub-stream,
// then the in-place perturb/patch/evaluate/accept-or-revert loop. The
// chain's best lands in cs.best; the returned trace is the input slice
// with this chain's points appended. The returned count covers
// successful evaluations only (a failed candidate is not counted).
func (cs *chainState) runChain(opts Options, p PerturbOptions, restart int, r *rng.RNG,
	trace []TracePoint) (float64, int, []TracePoint, error) {
	ev, ps := cs.ev, cs.ps
	cur := prepare(opts.InitialInstance(r), p)
	tab := ev.prepare(cur)
	initRatio, err := ev.ratioPrepared(cur)
	if err != nil {
		return 0, 0, trace, err
	}
	evals := 1

	// One incumbent-best buffer serves every chain this state runs; only
	// the merged Result.Best is ever cloned out of it. There is no
	// candidate buffer — the candidate IS cur, mutated in place and
	// rolled back on rejection.
	if cs.best == nil {
		cs.best = cur.Clone()
	} else {
		cs.best.CopyFrom(cur)
	}
	bestRatio := initRatio
	temp := opts.TMax
	for iter := 0; temp > opts.TMin && iter < opts.MaxIters; iter++ {
		perturbInPlace(cur, r, p, ps)
		applyTables(tab, ps)
		candRatio, err := ev.ratioPrepared(cur)
		if err != nil {
			return 0, evals, trace, err
		}
		evals++

		accepted := false
		if candRatio > bestRatio {
			cs.best.CopyFrom(cur)
			bestRatio = candRatio
			accepted = true
		} else if r.Float64() < math.Exp(-(candRatio/bestRatio)/temp) {
			// Algorithm 1 line 9: accept a non-improving candidate
			// with probability exp(−(M'/M_best)/T).
			accepted = true
		} else {
			revert(cur, tab, ps)
		}
		if opts.RecordTrace {
			trace = append(trace, TracePoint{
				Restart:     restart,
				Iteration:   iter,
				Temperature: temp,
				Ratio:       candRatio,
				Best:        bestRatio,
				Accepted:    accepted,
			})
		}
		temp *= opts.Alpha
	}
	return bestRatio, evals, trace, nil
}

// evaluator computes makespan ratios through the allocation-free
// scheduling path: one scratch and one schedule pair reused for every
// candidate, with the scratch's EvalCache letting the baseline
// scheduler reuse the target's rank computation on each candidate's
// identical tables. Two calling modes differ only in who keeps the
// scratch tables honest: ratio rebuilds them per call (safe for
// arbitrary instances — initial populations, one-shot evaluations),
// while ratioPrepared trusts the caller to have patched them
// incrementally after each in-place mutation (the annealer's inner
// loop, the GA's mutated offspring).
type evaluator struct {
	target, baseline scheduler.Scheduler
	scr              *scheduler.Scratch
	st, sb           schedule.Schedule
}

func newEvaluator(target, baseline scheduler.Scheduler, scr *scheduler.Scratch) *evaluator {
	if scr == nil {
		scr = scheduler.NewScratch()
	}
	return &evaluator{target: target, baseline: baseline, scr: scr}
}

// ratio returns the makespan ratio of the target over the baseline on
// the instance, rebuilding the cost tables first.
func (e *evaluator) ratio(inst *graph.Instance) (float64, error) {
	e.scr.Prepare(inst)
	return e.ratioPrepared(inst)
}

// prepare builds the scratch tables for inst and hands them to the
// caller for incremental maintenance: every in-place mutation of inst
// must be mirrored through the tables' Update*/AddDep/RemoveDep methods
// before the next ratioPrepared call (the graph.Tables staleness
// contract).
func (e *evaluator) prepare(inst *graph.Instance) *graph.Tables {
	e.scr.Prepare(inst)
	return e.scr.Tables(inst)
}

// ratioPrepared is ratio without the table rebuild: the scratch must
// already hold tables for inst (via prepare) that reflect its current
// weights and structure.
func (e *evaluator) ratioPrepared(inst *graph.Instance) (float64, error) {
	if err := scheduler.ScheduleInto(e.target, inst, e.scr, &e.st); err != nil {
		return 0, fmt.Errorf("core: target %s failed: %w", e.target.Name(), err)
	}
	if err := scheduler.ScheduleInto(e.baseline, inst, e.scr, &e.sb); err != nil {
		return 0, fmt.Errorf("core: baseline %s failed: %w", e.baseline.Name(), err)
	}
	mt, mb := e.st.Makespan(), e.sb.Makespan()
	if mb == 0 {
		if mt == 0 {
			return 1, nil
		}
		return math.Inf(1), nil
	}
	return mt / mb, nil
}

// prepare enforces the homogeneity constraints on a fresh initial
// instance: pinned speeds or links are reset to 1, matching the paper's
// setup ("we set all node weights to be 1 initially and do not allow
// them to be changed").
func prepare(inst *graph.Instance, p PerturbOptions) *graph.Instance {
	if p.KeepPinnedWeights {
		return inst
	}
	if p.FixSpeeds {
		for v := range inst.Net.Speeds {
			inst.Net.Speeds[v] = 1
		}
	}
	if p.FixLinks {
		n := inst.Net.NumNodes()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				inst.Net.SetLink(u, v, 1)
			}
		}
	}
	return inst
}
