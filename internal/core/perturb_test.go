package core

import (
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
)

// TestPerturbPreservesValidity is the key safety property of the search:
// any number of perturbations leaves the instance valid (acyclic graph,
// positive network weights, symmetric links).
func TestPerturbPreservesValidity(t *testing.T) {
	r := rng.New(101)
	p := DefaultPerturb().withDefaults()
	inst := datasets.InitialPISAInstance(r.Split())
	for i := 0; i < 3000; i++ {
		perturb(inst, r, p)
		if i%200 == 0 {
			if err := inst.Validate(); err != nil {
				t.Fatalf("after %d perturbations: %v", i, err)
			}
		}
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPerturbKeepsWeightsInRange(t *testing.T) {
	r := rng.New(103)
	p := DefaultPerturb().withDefaults()
	inst := datasets.InitialPISAInstance(r.Split())
	for i := 0; i < 2000; i++ {
		perturb(inst, r, p)
	}
	for _, tk := range inst.Graph.Tasks {
		if tk.Cost < 0 || tk.Cost > 1 {
			t.Fatalf("task cost %v outside [0,1]", tk.Cost)
		}
	}
	for _, succ := range inst.Graph.Succ {
		for _, d := range succ {
			if d.Cost < 0 || d.Cost > 1 {
				t.Fatalf("dep cost %v outside [0,1]", d.Cost)
			}
		}
	}
	for _, s := range inst.Net.Speeds {
		if s < p.MinNetWeight || s > 1 {
			t.Fatalf("speed %v outside [%v,1]", s, p.MinNetWeight)
		}
	}
	for u := 0; u < inst.Net.NumNodes(); u++ {
		for v := u + 1; v < inst.Net.NumNodes(); v++ {
			if l := inst.Net.Links[u][v]; l < p.MinNetWeight || l > 1 {
				t.Fatalf("link %v outside [%v,1]", l, p.MinNetWeight)
			}
		}
	}
}

func TestPerturbCustomRanges(t *testing.T) {
	r := rng.New(105)
	p := PerturbOptions{
		Step:         0.1,
		TaskCost:     [2]float64{5, 50},
		DepCost:      [2]float64{2, 20},
		Speed:        [2]float64{0.5, 3},
		Link:         [2]float64{1, 10},
		FixStructure: true,
	}.withDefaults()
	inst := datasets.InitialPISAInstance(r.Split())
	// Start weights inside the ranges so clamping semantics are clean.
	for i := range inst.Graph.Tasks {
		inst.Graph.Tasks[i].Cost = 10
	}
	for _, d := range inst.Graph.Deps() {
		inst.Graph.SetDepCost(d[0], d[1], 10)
	}
	for v := range inst.Net.Speeds {
		inst.Net.Speeds[v] = 1
	}
	for i := 0; i < 2000; i++ {
		perturb(inst, r, p)
	}
	for _, tk := range inst.Graph.Tasks {
		if tk.Cost < 5 || tk.Cost > 50 {
			t.Fatalf("task cost %v escaped [5,50]", tk.Cost)
		}
	}
	for _, succ := range inst.Graph.Succ {
		for _, d := range succ {
			if d.Cost < 2 || d.Cost > 20 {
				t.Fatalf("dep cost %v escaped [2,20]", d.Cost)
			}
		}
	}
	for _, s := range inst.Net.Speeds {
		if s < 0.5 || s > 3 {
			t.Fatalf("speed %v escaped [0.5,3]", s)
		}
	}
}

func TestEnabledOpsRespectFlags(t *testing.T) {
	all := enabledOps(DefaultPerturb())
	if len(all) != 6 {
		t.Fatalf("default ops = %d, want 6", len(all))
	}
	p := DefaultPerturb()
	p.FixSpeeds = true
	p.FixLinks = true
	p.FixStructure = true
	restricted := enabledOps(p)
	if len(restricted) != 2 { // task weight + dep weight only
		t.Fatalf("restricted ops = %d, want 2", len(restricted))
	}
}

func TestPerturbFixedStructureNeverChangesTopology(t *testing.T) {
	r := rng.New(107)
	p := DefaultPerturb()
	p.FixStructure = true
	pp := p.withDefaults()
	inst := datasets.InitialPISAInstance(r.Split())
	deps := inst.Graph.NumDeps()
	for i := 0; i < 2000; i++ {
		perturb(inst, r, pp)
	}
	if inst.Graph.NumDeps() != deps {
		t.Fatalf("dependency count changed: %d -> %d", deps, inst.Graph.NumDeps())
	}
}

func TestPerturbAddRemoveChangesTopologyEventually(t *testing.T) {
	r := rng.New(109)
	p := DefaultPerturb().withDefaults()
	inst := datasets.InitialPISAInstance(r.Split())
	initial := inst.Graph.NumDeps()
	changed := false
	for i := 0; i < 500 && !changed; i++ {
		perturb(inst, r, p)
		if inst.Graph.NumDeps() != initial {
			changed = true
		}
	}
	if !changed {
		t.Fatal("structural operators never fired in 500 perturbations")
	}
}

func TestWithDefaultsFillsZeroValues(t *testing.T) {
	p := PerturbOptions{}.withDefaults()
	if p.Step != 0.1 || p.TaskCost != [2]float64{0, 1} || p.MinNetWeight != 0.01 {
		t.Fatalf("withDefaults = %+v", p)
	}
	// Explicit values survive.
	q := PerturbOptions{Step: 0.3, TaskCost: [2]float64{1, 2}}.withDefaults()
	if q.Step != 0.3 || q.TaskCost != [2]float64{1, 2} {
		t.Fatalf("withDefaults overwrote explicit values: %+v", q)
	}
}

// perturb is the one-shot form of perturbInPlace for the property tests
// and the GA reference's mutation step; the undo log is discarded.
func perturb(inst *graph.Instance, r *rng.RNG, p PerturbOptions) {
	ps := &perturbState{ops: enabledOps(p)}
	perturbInPlace(inst, r, p, ps)
}
