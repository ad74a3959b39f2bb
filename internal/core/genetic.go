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
	// Workers bounds how many offspring fitness evaluations run
	// concurrently. 0 or 1 keeps the classic sequential loop (the right
	// choice inside an already-parallel sweep); values above
	// PopulationSize are clamped. Results are bit-identical for every
	// value: all randomness — selection, crossover, the mutation
	// decision and the mutation itself — stays on the calling goroutine
	// in the sequential order, and only the deterministic fitness
	// evaluations fan out (see runGAParallel). With Workers > 1,
	// InitialInstance must be safe for concurrent calls.
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
// Clone; mutation is perturbInPlace against the per-worker
// perturbState in scratch extension state, with the already-built cost
// tables patched through the graph.Tables delta methods
// (applyTables) rather than rebuilt; and each candidate's
// target/baseline evaluation pair shares one rank computation through
// the scratch's EvalCache. Results are bit-identical to the
// clone-and-full-Prepare implementation it replaced, kept as the oracle
// RunGAReference in genetic_reference_test.go;
// genetic_incremental_test.go proves it across perturbation modes and
// scheduler pairs.
func RunGA(target, baseline scheduler.Scheduler, opts GAOptions) (*Result, error) {
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	p := opts.Perturb.withDefaults()
	r := rng.New(opts.Seed)
	if w := gaWorkers(opts); w > 1 {
		return runGAParallel(target, baseline, opts, p, r, w)
	}
	ev := newEvaluator(target, baseline, opts.Scratch)
	ps := ev.scr.Ext(pisaExtKey, func() any { return new(perturbState) }).(*perturbState)
	ps.ops = append(ps.ops[:0], enabledOps(p)...)
	res := &Result{}

	pop := make([]individual, opts.PopulationSize)
	for i := range pop {
		inst := prepare(opts.InitialInstance(r.Split()), p)
		ratio, err := ev.ratio(inst)
		if err != nil {
			return nil, err
		}
		res.Evaluations++
		pop[i] = individual{inst: inst, ratio: ratio}
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

	// Two instance banks ping-pong across generations: the current
	// population lives in one, elites and offspring are copied/built into
	// the spare, and after the swap the outgoing generation's buffers
	// become the next spare bank. Steady state clones nothing.
	next := make([]individual, opts.PopulationSize)
	spare := make([]*graph.Instance, opts.PopulationSize)

	for gen := 0; gen < opts.Generations; gen++ {
		n := 0
		for ; n < opts.Elite; n++ {
			spare[n] = copyInto(spare[n], pop[n].inst)
			next[n] = individual{inst: spare[n], ratio: pop[n].ratio}
		}
		for ; n < opts.PopulationSize; n++ {
			a, b := tournament(), tournament()
			spare[n] = crossoverInto(spare[n], a, b, r)
			child := spare[n]
			mutate := r.Float64() < opts.MutationRate
			// Crossover rewrites weights wholesale, so the child needs one
			// full table build; the mutation on top is a single operator
			// and rides the delta-patch path, leaving the tables current
			// for ratioPrepared without a second build.
			tab := ev.prepare(child)
			if mutate {
				perturbInPlace(child, r, p, ps)
				applyTables(tab, ps)
			}
			ratio, err := ev.ratioPrepared(child)
			if err != nil {
				return nil, err
			}
			res.Evaluations++
			next[n] = individual{inst: child, ratio: ratio}
		}
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

// gaWorkers resolves GAOptions.Workers to an effective worker count:
// 0 and 1 mean sequential, anything larger is clamped to the population
// size (the widest fitness fan-out a generation offers).
func gaWorkers(opts GAOptions) int {
	w := opts.Workers
	if w > opts.PopulationSize {
		w = opts.PopulationSize
	}
	return w
}

// sortByFitness is the shared generation ordering: stable descending by
// ratio, so equal-fitness individuals keep their construction order and
// the sequential and parallel loops sort identically.
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
