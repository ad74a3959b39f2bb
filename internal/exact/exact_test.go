package exact

import (
	"math"
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

func smallInstance(seed uint64) *graph.Instance {
	return datasets.InitialPISAInstance(rng.New(seed))
}

func TestSolveProducesValidSchedule(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		inst := smallInstance(seed)
		sch, err := Solve(inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := schedule.Validate(inst, sch); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestSolveAtLeastLowerBound(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		inst := smallInstance(seed)
		sch, err := Solve(inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if lb := LowerBound(inst, scheduler.NewScratch()); sch.Makespan() < lb-graph.Eps {
			t.Fatalf("seed %d: optimal %v below lower bound %v", seed, sch.Makespan(), lb)
		}
	}
}

func TestSolveMatchesHandOptimum(t *testing.T) {
	// Two independent unit tasks on two unit nodes: optimal makespan 1.
	g := graph.NewTaskGraph()
	g.AddTask("a", 1)
	g.AddTask("b", 1)
	inst := graph.NewInstance(g, graph.NewNetwork(2))
	sch, err := Solve(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.ApproxEq(sch.Makespan(), 1) {
		t.Fatalf("makespan = %v, want 1", sch.Makespan())
	}
}

func TestSolveChainWithExpensiveComm(t *testing.T) {
	// Chain a→b with data 100 over a weak link: optimal keeps both on
	// the fast node: 1/2 + 2/2 = 1.5.
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 2)
	g.MustAddDep(a, b, 100)
	net := graph.NewNetwork(2)
	net.Speeds[1] = 2
	net.SetLink(0, 1, 0.1)
	inst := graph.NewInstance(g, net)
	sch, err := Solve(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.ApproxEq(sch.Makespan(), 1.5) {
		t.Fatalf("makespan = %v, want 1.5", sch.Makespan())
	}
	if sch.ByTask[0].Node != 1 || sch.ByTask[1].Node != 1 {
		t.Fatalf("optimal split tasks across nodes: %+v", sch.ByTask)
	}
}

func TestFeasibleConsistentWithSolve(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		inst := smallInstance(seed)
		opt, err := Solve(inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := opt.Makespan()
		if _, ok, err := Feasible(inst, m+graph.Eps, Options{}); err != nil || !ok {
			t.Fatalf("seed %d: deadline == optimum reported infeasible (%v)", seed, err)
		}
		if _, ok, err := Feasible(inst, m*0.95, Options{}); err != nil || ok {
			t.Fatalf("seed %d: deadline below optimum reported feasible (%v)", seed, err)
		}
	}
}

func TestFeasibleReturnsSatisfyingSchedule(t *testing.T) {
	inst := smallInstance(3)
	opt, err := Solve(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := opt.Makespan() * 1.5
	sch, ok, err := Feasible(inst, deadline, Options{})
	if err != nil || !ok {
		t.Fatalf("feasible failed: %v", err)
	}
	if err := schedule.Validate(inst, sch); err != nil {
		t.Fatal(err)
	}
	if sch.Makespan() > deadline+graph.Eps {
		t.Fatalf("returned schedule misses deadline: %v > %v", sch.Makespan(), deadline)
	}
}

// TestSolveDeepChain10000 pins the iterative search's memory and stack
// behavior: a 10k-task dependency chain on one node has exactly one
// candidate per level, so the DFS runs 10k frames deep on the single
// shared builder. The recursive clone-per-branch implementation this
// replaced held a builder copy per level and could not finish; the
// iterative one completes with the exact chain makespan.
func TestSolveDeepChain10000(t *testing.T) {
	const n = 10000
	g := graph.NewTaskGraph()
	want := 0.0
	for i := 0; i < n; i++ {
		c := 1 + float64(i%5)
		g.AddTask("", c)
		want += c
	}
	for i := 1; i < n; i++ {
		g.MustAddDep(i-1, i, float64(i%3))
	}
	inst := graph.NewInstance(g, graph.NewNetwork(1))
	sch, err := Solve(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(inst, sch); err != nil {
		t.Fatal(err)
	}
	if !graph.ApproxEq(sch.Makespan(), want) {
		t.Fatalf("chain makespan = %v, want %v", sch.Makespan(), want)
	}
}

// TestSolveDominancePrunes checks the solver stays exact on an instance
// built to hit the dominance table hard: many identical independent
// tasks over identical nodes, where permuted placements collapse onto
// the same (mask, assignment) keys.
func TestSolveDominancePrunes(t *testing.T) {
	g := graph.NewTaskGraph()
	for i := 0; i < 6; i++ {
		g.AddTask("", 1)
	}
	inst := graph.NewInstance(g, graph.NewNetwork(2))
	sch, err := Solve(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.ApproxEq(sch.Makespan(), 3) {
		t.Fatalf("makespan = %v, want 3 (6 unit tasks on 2 unit nodes)", sch.Makespan())
	}
}

func TestBudgetExceeded(t *testing.T) {
	inst := smallInstance(5)
	if _, err := Solve(inst, Options{MaxNodes: 2}); err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestLowerBoundComponents(t *testing.T) {
	// Work bound dominates: 4 unit tasks, 2 unit nodes → LB 2.
	g := graph.NewTaskGraph()
	for i := 0; i < 4; i++ {
		g.AddTask("t", 1)
	}
	inst := graph.NewInstance(g, graph.NewNetwork(2))
	if lb := LowerBound(inst, scheduler.NewScratch()); !graph.ApproxEq(lb, 2) {
		t.Fatalf("work lower bound = %v, want 2", lb)
	}
	// Critical-path bound dominates: chain of 3 unit tasks, 3 nodes.
	g2 := graph.NewTaskGraph()
	a := g2.AddTask("a", 1)
	b := g2.AddTask("b", 1)
	c := g2.AddTask("c", 1)
	g2.MustAddDep(a, b, 0)
	g2.MustAddDep(b, c, 0)
	inst2 := graph.NewInstance(g2, graph.NewNetwork(3))
	if lb := LowerBound(inst2, scheduler.NewScratch()); !graph.ApproxEq(lb, 3) {
		t.Fatalf("critical-path lower bound = %v, want 3", lb)
	}
}

func TestLowerBoundNeverExceedsOptimal(t *testing.T) {
	for seed := uint64(20); seed < 35; seed++ {
		inst := smallInstance(seed)
		opt, err := Solve(inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if lb := LowerBound(inst, scheduler.NewScratch()); lb > opt.Makespan()+graph.Eps {
			t.Fatalf("seed %d: LB %v > OPT %v", seed, lb, opt.Makespan())
		}
	}
}

func TestSolveInfiniteLinksNetwork(t *testing.T) {
	// Shared-filesystem style network: communication is free, optimum
	// spreads tasks.
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	c := g.AddTask("c", 1)
	g.MustAddDep(a, b, 100)
	g.MustAddDep(a, c, 100)
	net := graph.NewNetwork(2)
	net.SetLink(0, 1, math.Inf(1))
	inst := graph.NewInstance(g, net)
	sch, err := Solve(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.ApproxEq(sch.Makespan(), 2) {
		t.Fatalf("makespan = %v, want 2 (free communication)", sch.Makespan())
	}
}
