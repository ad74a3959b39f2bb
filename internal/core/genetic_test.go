package core

import (
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
)

func gaTestOptions(seed uint64) GAOptions {
	o := DefaultGAOptions()
	o.PopulationSize = 10
	o.Generations = 15
	o.Seed = seed
	o.InitialInstance = datasets.InitialPISAInstance
	return o
}

func TestRunGAFindsAdversarialInstance(t *testing.T) {
	res, err := RunGA(mustSched(t, "HEFT"), mustSched(t, "CPoP"), gaTestOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best instance")
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("GA produced invalid instance: %v", err)
	}
	if res.BestRatio <= 1 {
		t.Fatalf("GA found no instance where HEFT loses to CPoP (ratio %v)", res.BestRatio)
	}
	if res.Evaluations < 10 {
		t.Fatalf("suspiciously few evaluations: %d", res.Evaluations)
	}
}

func TestRunGAReportedRatioMatches(t *testing.T) {
	target, base := mustSched(t, "MCT"), mustSched(t, "HEFT")
	res, err := RunGA(target, base, gaTestOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	got, err := evaluate(target, base, res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.ApproxEq(got, res.BestRatio) {
		t.Fatalf("reported %v, re-evaluated %v", res.BestRatio, got)
	}
}

func TestRunGARejectsBadOptions(t *testing.T) {
	good := gaTestOptions(1)
	cases := []func(*GAOptions){
		func(o *GAOptions) { o.InitialInstance = nil },
		func(o *GAOptions) { o.PopulationSize = 1 },
		func(o *GAOptions) { o.Generations = 0 },
	}
	for i, mutate := range cases {
		o := good
		mutate(&o)
		if _, err := RunGA(mustSched(t, "HEFT"), mustSched(t, "CPoP"), o); err == nil {
			t.Errorf("case %d: invalid GA options accepted", i)
		}
	}
}

func TestCrossoverCompatibleParents(t *testing.T) {
	r := rng.New(11)
	base := datasets.InitialPISAInstance(r.Split())
	a := individual{inst: base.Clone(), ratio: 2}
	b := individual{inst: base.Clone(), ratio: 1}
	// Make the parents' weights distinguishable.
	for t2 := range a.inst.Graph.Tasks {
		a.inst.Graph.Tasks[t2].Cost = 0.25
		b.inst.Graph.Tasks[t2].Cost = 0.75
	}
	child := crossover(a, b, r)
	if err := child.Validate(); err != nil {
		t.Fatal(err)
	}
	if child.Graph.NumTasks() != base.Graph.NumTasks() {
		t.Fatal("crossover changed structure")
	}
	for t2 := range child.Graph.Tasks {
		c := child.Graph.Tasks[t2].Cost
		if c != 0.25 && c != 0.75 {
			t.Fatalf("child cost %v came from neither parent", c)
		}
	}
}

func TestCrossoverIncompatibleParentsClonesFitter(t *testing.T) {
	r := rng.New(13)
	a := individual{inst: datasets.InitialPISAInstance(rng.New(1)), ratio: 1}
	b := individual{inst: datasets.InitialPISAInstance(rng.New(2)), ratio: 3}
	for !compatible(a.inst, b.inst) || a.inst.Graph.NumTasks() == b.inst.Graph.NumTasks() {
		break // instances from different seeds may or may not match; force incompatibility below
	}
	// Force incompatibility: add an extra dependency to b if possible,
	// otherwise a differs already.
	if compatible(a.inst, b.inst) {
		g := b.inst.Graph
		added := false
		for u := 0; u < g.NumTasks() && !added; u++ {
			for v := 0; v < g.NumTasks() && !added; v++ {
				if u != v && !g.HasDep(u, v) && !g.Reaches(v, u) {
					g.MustAddDep(u, v, 0.5)
					added = true
				}
			}
		}
	}
	child := crossover(a, b, r)
	// Fitter parent is b; the clone must match b's structure.
	if child.Graph.NumTasks() != b.inst.Graph.NumTasks() ||
		child.Graph.NumDeps() != b.inst.Graph.NumDeps() {
		t.Fatal("incompatible crossover did not clone the fitter parent")
	}
	// And must be an independent copy.
	child.Graph.Tasks[0].Cost = 12345
	if b.inst.Graph.Tasks[0].Cost == 12345 {
		t.Fatal("crossover returned a shared instance")
	}
}

func TestGAComparableToSAOnSamePair(t *testing.T) {
	// Not a performance assertion — both searches must simply find a
	// ratio > 1 for a pair known to have adversarial instances in both
	// directions (HEFT vs CPoP, Section VI-B).
	sa, err := Run(mustSched(t, "CPoP"), mustSched(t, "HEFT"), testOptions(21))
	if err != nil {
		t.Fatal(err)
	}
	gaOpts := gaTestOptions(21)
	gaOpts.PopulationSize = 16
	gaOpts.Generations = 50
	ga, err := RunGA(mustSched(t, "CPoP"), mustSched(t, "HEFT"), gaOpts)
	if err != nil {
		t.Fatal(err)
	}
	if sa.BestRatio <= 1 || ga.BestRatio <= 1 {
		t.Fatalf("SA ratio %v, GA ratio %v — both should exceed 1", sa.BestRatio, ga.BestRatio)
	}
}
