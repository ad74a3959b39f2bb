package core

import (
	"sort"

	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/scheduler"
)

// This test file retains the clone-and-full-Prepare GA loop verbatim as
// the bit-identity oracle for the incremental RunGA in genetic.go,
// mirroring the RunReference/Run split of the annealer: every offspring
// is a fresh Clone (of the fitter parent, weight-mixed by crossover),
// mutation is the one-shot allocating perturb, and every fitness
// evaluation rebuilds the full cost tables with rank memoization
// disabled. RunGAReference must consume the identical RNG stream and
// produce byte-identical Results to RunGA —
// differential_test.go asserts it per perturbation mode and
// scheduler pair, and BenchmarkGAAdversarial (pisa_bench_test.go)
// measures the speedup against it. Do not "improve" this code; its
// value is that it shares none of the buffer-recycling machinery it
// checks.

// RunGAReference executes the genetic search with the pre-incremental
// evaluation strategy: one Clone per offspring and one full Tables
// rebuild per fitness evaluation. Results are bit-identical to RunGA;
// only the speed and allocation profile differ.
func RunGAReference(target, baseline scheduler.Scheduler, opts GAOptions) (*Result, error) {
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	p := opts.Perturb.withDefaults()
	r := rng.New(opts.Seed)
	ev := newEvaluator(target, baseline, opts.Scratch)
	// Uncached oracle, exactly like RunReference: the full rebuild per
	// evaluation is the baseline being measured and proven against.
	defer ev.scr.SetEvalCache(ev.scr.SetEvalCache(false))
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

	byFitness := func() {
		sort.SliceStable(pop, func(a, b int) bool { return pop[a].ratio > pop[b].ratio })
	}
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

	for gen := 0; gen < opts.Generations; gen++ {
		next := make([]individual, 0, opts.PopulationSize)
		for i := 0; i < opts.Elite; i++ {
			next = append(next, pop[i])
		}
		for len(next) < opts.PopulationSize {
			a, b := tournament(), tournament()
			child := crossover(a, b, r)
			if r.Float64() < opts.MutationRate {
				perturb(child, r, p)
			}
			ratio, err := ev.ratio(child)
			if err != nil {
				return nil, err
			}
			res.Evaluations++
			next = append(next, individual{inst: child, ratio: ratio})
		}
		pop = next
		byFitness()
	}

	res.Best = pop[0].inst
	res.BestRatio = pop[0].ratio
	res.RestartRatios = []float64{pop[0].ratio}
	return res, nil
}

// crossover combines two parent instances, allocating the child — the
// original implementation whose RNG draw sequence crossoverInto must
// reproduce exactly. When the parents have the same task count, node
// count and dependency set, the child takes each task cost, dependency
// cost, node speed and link strength from a uniformly random parent
// (uniform crossover on the weight vector). Structurally incompatible
// parents — possible because mutation can add or remove dependencies —
// yield a clone of the fitter parent.
func crossover(a, b individual, r *rng.RNG) *graph.Instance {
	fitter, other := a, b
	if b.ratio > a.ratio {
		fitter, other = b, a
	}
	if !compatible(fitter.inst, other.inst) {
		return fitter.inst.Clone()
	}
	child := fitter.inst.Clone()
	for t := range child.Graph.Tasks {
		if r.Float64() < 0.5 {
			child.Graph.Tasks[t].Cost = other.inst.Graph.Tasks[t].Cost
		}
	}
	for _, d := range child.Graph.Deps() {
		if r.Float64() < 0.5 {
			c, _ := other.inst.Graph.DepCost(d[0], d[1])
			child.Graph.SetDepCost(d[0], d[1], c)
		}
	}
	for v := range child.Net.Speeds {
		if r.Float64() < 0.5 {
			child.Net.Speeds[v] = other.inst.Net.Speeds[v]
		}
	}
	for u := 0; u < child.Net.NumNodes(); u++ {
		for v := u + 1; v < child.Net.NumNodes(); v++ {
			if r.Float64() < 0.5 {
				child.Net.SetLink(u, v, other.inst.Net.Links[u][v])
			}
		}
	}
	return child
}
