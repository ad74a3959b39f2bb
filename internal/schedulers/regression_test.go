package schedulers

import (
	"math"
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// TestFig1FrozenMakespans pins every experimental algorithm's makespan
// on the paper's Fig 1 instance. These values were produced by this
// implementation and hand-sanity-checked (FastestNode = serial on the
// speed-1.5 node = (1.7+1.2+2.2+0.8)/1.5 = 3.9333; OLB ignores speeds
// and communication and pays for it; BruteForce/SMT confirm 3.9333 is
// optimal). Any behavioural change to a scheduler shows up here first.
func TestFig1FrozenMakespans(t *testing.T) {
	want := map[string]float64{
		"BIL":         4.25,
		"CPoP":        4.25,
		"Duplex":      4.05,
		"ETF":         5.2,
		"FCP":         6.0333333333,
		"FLB":         6.1666666667,
		"FastestNode": 3.9333333333,
		"GDL":         4.25,
		"HEFT":        4.25,
		"MCT":         4.05,
		"MET":         3.9333333333,
		"MaxMin":      4.25,
		"MinMin":      4.05,
		"OLB":         7.3,
		"WBA":         4.0333333333,
	}
	inst := datasets.Fig1Instance()
	for _, s := range Experimental() {
		sch, err := scheduler.Schedule(s, inst)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if w := want[s.Name()]; math.Abs(sch.Makespan()-w) > 1e-9 {
			t.Errorf("%s makespan = %.10f, want %.10f", s.Name(), sch.Makespan(), w)
		}
	}
}

// TestFig1OptimumIsFastestNode freezes the optimality fact the quickstart
// example surfaces: on Fig 1, serializing on the fastest node is optimal
// (3.9333...), and HEFT's 4.25 is a real 8% over-parallelization loss.
func TestFig1OptimumIsFastestNode(t *testing.T) {
	inst := datasets.Fig1Instance()
	bf, _ := scheduler.New("BruteForce")
	opt, err := scheduler.Schedule(bf, inst)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.ApproxEq(opt.Makespan(), 5.9/1.5) {
		t.Fatalf("Fig 1 optimum = %v, want %v", opt.Makespan(), 5.9/1.5)
	}
}

// extremeInstances exercises numerically hostile weights: huge and tiny
// costs, strong/weak links, mixed magnitudes.
func extremeInstances() []*graph.Instance {
	var out []*graph.Instance

	// Huge task costs, tiny speeds.
	g1 := graph.NewTaskGraph()
	a := g1.AddTask("a", 1e9)
	b := g1.AddTask("b", 1e9)
	g1.MustAddDep(a, b, 1e9)
	n1 := graph.NewNetwork(3)
	for v := range n1.Speeds {
		n1.Speeds[v] = 1e-3
	}
	out = append(out, graph.NewInstance(g1, n1))

	// Tiny costs on fast nodes with weak links.
	g2 := graph.NewTaskGraph()
	c := g2.AddTask("c", 1e-9)
	d := g2.AddTask("d", 1e-9)
	e := g2.AddTask("e", 1e-9)
	g2.MustAddDep(c, d, 1e-9)
	g2.MustAddDep(c, e, 1e-9)
	n2 := graph.NewNetwork(2)
	n2.Speeds[0], n2.Speeds[1] = 1e6, 1e6
	n2.SetLink(0, 1, 1e-6)
	out = append(out, graph.NewInstance(g2, n2))

	// Mixed magnitudes: one enormous task among trivial ones.
	g3 := graph.NewTaskGraph()
	f := g3.AddTask("f", 1e-6)
	h := g3.AddTask("h", 1e6)
	i := g3.AddTask("i", 1e-6)
	g3.MustAddDep(f, h, 1)
	g3.MustAddDep(f, i, 1)
	n3 := graph.NewNetwork(3)
	n3.Speeds[1] = 1e3
	out = append(out, graph.NewInstance(g3, n3))

	return out
}

// TestSchedulersSurviveExtremeWeights is failure injection for numeric
// robustness: every algorithm must stay valid (no NaN/Inf starts, no
// overlap) across nine orders of magnitude of weights.
func TestSchedulersSurviveExtremeWeights(t *testing.T) {
	for _, inst := range extremeInstances() {
		if err := inst.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, name := range allNames {
			s, _ := scheduler.New(name)
			sch, err := scheduler.Schedule(s, inst)
			if err != nil {
				t.Fatalf("%s on extreme instance: %v", name, err)
			}
			if err := schedule.Validate(inst, sch); err != nil {
				t.Fatalf("%s on extreme instance: %v", name, err)
			}
			if math.IsNaN(sch.Makespan()) || math.IsInf(sch.Makespan(), 0) {
				t.Fatalf("%s produced non-finite makespan %v", name, sch.Makespan())
			}
		}
	}
}

// TestSchedulersOnWideGraph exercises a high-fanout graph (one source,
// 60 children) where per-iteration rescans are most stressed.
func TestSchedulersOnWideGraph(t *testing.T) {
	g := graph.NewTaskGraph()
	src := g.AddTask("src", 1)
	for i := 0; i < 60; i++ {
		c := g.AddTask("c", 1)
		g.MustAddDep(src, c, 0.5)
	}
	net := graph.NewNetwork(4)
	net.Speeds[3] = 3
	inst := graph.NewInstance(g, net)
	for _, s := range Experimental() {
		sch, err := scheduler.Schedule(s, inst)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := schedule.Validate(inst, sch); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

// TestSchedulersOnDeepChain exercises a 200-task chain (worst case for
// rank recursion depth and serial dependencies).
func TestSchedulersOnDeepChain(t *testing.T) {
	g := graph.NewTaskGraph()
	prev := -1
	for i := 0; i < 200; i++ {
		tk := g.AddTask("t", 1)
		if prev >= 0 {
			g.MustAddDep(prev, tk, 1)
		}
		prev = tk
	}
	net := graph.NewNetwork(3)
	net.Speeds[2] = 2
	inst := graph.NewInstance(g, net)
	for _, s := range Experimental() {
		sch, err := scheduler.Schedule(s, inst)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := schedule.Validate(inst, sch); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		// A chain cannot finish faster than serial on the fastest node.
		if sch.Makespan() < 200.0/2-graph.Eps {
			t.Fatalf("%s beat the chain lower bound: %v", s.Name(), sch.Makespan())
		}
	}
}
