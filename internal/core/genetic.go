package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/scheduler"
)

// GAOptions configures the genetic adversarial instance finder — the
// "other meta-heuristics (e.g., genetic algorithms)" direction the
// paper's conclusion proposes for future work. The search space and
// objective are identical to PISA's: problem instances, scored by the
// makespan ratio of the target scheduler over the baseline; only the
// search strategy differs (population + tournament selection + crossover
// + perturbation-as-mutation instead of one annealed trajectory).
type GAOptions struct {
	// PopulationSize is the number of instances per generation.
	PopulationSize int
	// Generations is the number of evolution steps.
	Generations int
	// TournamentK is the tournament-selection size.
	TournamentK int
	// Elite is how many best instances survive unchanged per generation.
	Elite int
	// MutationRate is the probability each offspring is perturbed
	// (using the same operators as PISA).
	MutationRate float64
	// Seed drives all randomness.
	Seed uint64
	// InitialInstance generates the initial population (required).
	InitialInstance func(r *rng.RNG) *graph.Instance
	// Perturb configures the mutation operators; zero value = Section VI
	// defaults.
	Perturb PerturbOptions
	// Scratch, when non-nil, is the reusable per-worker scheduling state
	// threaded through every fitness evaluation, exactly like
	// Options.Scratch in the annealer. Nil allocates a private one per
	// run; the scratch never affects results.
	Scratch *scheduler.Scratch
	// Workers bounds how many fitness evaluations run concurrently; it is
	// clamped to [1, PopulationSize]. The calling goroutine is worker 0,
	// so 0 or 1 spawns no goroutine (the right choice inside an
	// already-parallel sweep). Results are bit-identical for every value:
	// all randomness — selection, crossover, the mutation decision and
	// the mutation itself — is drawn on the calling goroutine in one
	// fixed order, and only the deterministic fitness evaluations fan out
	// (see RunGA). With Workers > 1, InitialInstance must be safe for
	// concurrent calls.
	Workers int
}

// DefaultGAOptions returns a configuration comparable in evaluation
// budget to the paper's annealing run (≈2300 evaluations): population 20
// over 100 generations.
func DefaultGAOptions() GAOptions {
	return GAOptions{
		PopulationSize: 20,
		Generations:    100,
		TournamentK:    3,
		Elite:          2,
		MutationRate:   0.9,
		Seed:           1,
	}
}

// normalized validates the configuration and applies the historical
// clamps (TournamentK, Elite); RunGA and the test-only RunGAReference
// share it so both loops reject identical inputs with identical errors.
func (o GAOptions) normalized() (GAOptions, error) {
	if o.InitialInstance == nil {
		return o, errors.New("core: GAOptions.InitialInstance is required")
	}
	if o.PopulationSize < 2 || o.Generations <= 0 {
		return o, errors.New("core: GA needs PopulationSize >= 2 and Generations > 0")
	}
	if o.MutationRate < 0 || o.MutationRate > 1 || math.IsNaN(o.MutationRate) {
		return o, fmt.Errorf("core: MutationRate %v outside [0, 1]", o.MutationRate)
	}
	if o.TournamentK <= 0 {
		o.TournamentK = 3
	}
	if o.Elite < 0 || o.Elite >= o.PopulationSize {
		o.Elite = 1
	}
	if err := checkPerturb(o.Perturb); err != nil {
		return o, err
	}
	return o, nil
}

type individual struct {
	inst  *graph.Instance
	ratio float64
}

// RunGA evolves adversarial instances for the target scheduler against
// the baseline and returns the best found. Crossover between two parent
// instances swaps weight vectors where the parents are structurally
// compatible and otherwise copies the fitter parent; mutation applies
// one PISA perturbation.
//
// The loop runs on the incremental machinery the annealer introduced:
// two instance banks ping-pong between generations, so every offspring
// is a CopyFrom into a recycled buffer (crossoverInto) instead of a
// Clone; mutation is perturbInPlace against the caller's perturbState
// in scratch extension state; and each candidate's target/baseline
// evaluation pair shares one rank computation through the scratch's
// EvalCache. Results are bit-identical to the clone-and-full-Prepare
// implementation it replaced, kept as the oracle RunGAReference in
// genetic_reference_test.go; genetic_incremental_test.go proves it
// across perturbation modes and scheduler pairs.
//
// Each generation runs in two phases at every Workers value: every RNG
// draw — tournaments, crossover mixing, the mutation decision, the
// mutation operator itself — happens on the calling goroutine in
// offspring order; then fitness fans out (fanOut, the caller being
// worker 0), each worker building its child's tables once. See
// parallel.go for the ownership and determinism rules.
func RunGA(target, baseline scheduler.Scheduler, opts GAOptions) (*Result, error) {
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	p := opts.Perturb.withDefaults()
	r := rng.New(opts.Seed)
	n := opts.PopulationSize
	workers := clampWorkers(opts.Workers, n)
	scratches := workerScratches(opts.Scratch, workers)
	evs := make([]*evaluator, workers)
	for w, scr := range scratches {
		evs[w] = newEvaluator(target, baseline, scr)
	}
	ps := scratches[0].Ext(pisaExtKey, func() any { return new(perturbState) }).(*perturbState)
	ps.ops = append(ps.ops[:0], enabledOps(p)...)
	res := &Result{}
	ratios := make([]float64, n)
	errs := make([]error, n)

	// Initial population: the per-individual sub-streams split here in
	// population order; generation and evaluation fan out.
	subs := make([]*rng.RNG, n)
	for i := range subs {
		subs[i] = r.Split()
	}
	pop := make([]individual, n)
	fanOut(workers, 0, n, func(w, k int) {
		pop[k].inst = prepare(opts.InitialInstance(subs[k]), p)
		ratios[k], errs[k] = evs[w].ratio(pop[k].inst)
	})
	if err := firstErr(errs, 0, n); err != nil {
		return nil, err
	}
	for i := range pop {
		pop[i].ratio = ratios[i]
	}
	res.Evaluations += n

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

	// Two instance banks ping-pong across generations: the current
	// population lives in one, elites and offspring are copied/built into
	// the spare, and after the swap the outgoing generation's buffers
	// become the next spare bank. Steady state clones nothing. The spare
	// bank doubles as the per-offspring slots the workers read (disjoint
	// indices, joined before the swap).
	next := make([]individual, n)
	spare := make([]*graph.Instance, n)
	evalChild := func(w, k int) { ratios[k], errs[k] = evs[w].ratio(spare[k]) }

	for gen := 0; gen < opts.Generations; gen++ {
		m := 0
		for ; m < opts.Elite; m++ {
			spare[m] = copyInto(spare[m], pop[m].inst)
			next[m] = individual{inst: spare[m], ratio: pop[m].ratio}
		}
		// Phase 1: all randomness, in offspring order.
		for ; m < n; m++ {
			a, b := tournament(), tournament()
			spare[m] = crossoverInto(spare[m], a, b, r)
			if r.Float64() < opts.MutationRate {
				perturbInPlace(spare[m], r, p, ps)
			}
		}
		// Phase 2: fitness, one table build per child.
		fanOut(workers, opts.Elite, n, evalChild)
		if err := firstErr(errs, opts.Elite, n); err != nil {
			return nil, err
		}
		for k := opts.Elite; k < n; k++ {
			next[k] = individual{inst: spare[k], ratio: ratios[k]}
		}
		res.Evaluations += n - opts.Elite
		for i := range pop {
			spare[i] = pop[i].inst
		}
		pop, next = next, pop
		byFitness()
	}

	// The winner lives in a recycled bank buffer; clone it out so the
	// result owns its instance (mirroring Run's handling of Best).
	res.Best = pop[0].inst.Clone()
	res.BestRatio = pop[0].ratio
	res.RestartRatios = []float64{pop[0].ratio}
	return res, nil
}

// sortByFitness is the generation ordering: stable descending by ratio,
// so equal-fitness individuals keep their construction order.
func sortByFitness(pop []individual) {
	sort.SliceStable(pop, func(a, b int) bool { return pop[a].ratio > pop[b].ratio })
}

// copyInto deep-copies src into dst's storage, allocating dst only on
// first use (cold bank slot).
func copyInto(dst, src *graph.Instance) *graph.Instance {
	if dst == nil {
		return src.Clone()
	}
	dst.CopyFrom(src)
	return dst
}

// crossoverInto is crossover writing into a caller-owned buffer: the
// identical draw sequence and weight selection, with dst.CopyFrom
// replacing the Clone. The dependency loop walks the successor lists
// directly — the same edge order Deps() materializes — so the RNG
// stream matches the reference bit for bit without allocating the edge
// slice.
func crossoverInto(dst *graph.Instance, a, b individual, r *rng.RNG) *graph.Instance {
	fitter, other := a, b
	if b.ratio > a.ratio {
		fitter, other = b, a
	}
	dst = copyInto(dst, fitter.inst)
	if !compatible(fitter.inst, other.inst) {
		return dst
	}
	og := other.inst.Graph
	for t := range dst.Graph.Tasks {
		if r.Float64() < 0.5 {
			dst.Graph.Tasks[t].Cost = og.Tasks[t].Cost
		}
	}
	for u := range dst.Graph.Succ {
		succ := dst.Graph.Succ[u]
		for i := range succ {
			if r.Float64() < 0.5 {
				c, _ := og.DepCost(u, succ[i].To)
				dst.Graph.SetDepCost(u, succ[i].To, c)
			}
		}
	}
	for v := range dst.Net.Speeds {
		if r.Float64() < 0.5 {
			dst.Net.Speeds[v] = other.inst.Net.Speeds[v]
		}
	}
	for u := 0; u < dst.Net.NumNodes(); u++ {
		for v := u + 1; v < dst.Net.NumNodes(); v++ {
			if r.Float64() < 0.5 {
				dst.Net.SetLink(u, v, other.inst.Net.Links[u][v])
			}
		}
	}
	return dst
}

// compatible reports whether two instances share a structure (task and
// node counts, identical dependency sets), making weight-level crossover
// meaningful.
func compatible(a, b *graph.Instance) bool {
	if a.Graph.NumTasks() != b.Graph.NumTasks() ||
		a.Net.NumNodes() != b.Net.NumNodes() ||
		a.Graph.NumDeps() != b.Graph.NumDeps() {
		return false
	}
	for _, d := range a.Graph.Deps() {
		if !b.Graph.HasDep(d[0], d[1]) {
			return false
		}
	}
	return true
}
