package schedulers

import (
	"fmt"
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// allNames lists every Table I algorithm, including the exponential ones.
var allNames = append(append([]string{}, ExperimentalNames...), "BruteForce", "SMT")

// randomInstances draws a mix of small instances from the PISA
// initial-instance generator plus structural perturbations, covering
// chains, forks and random DAGs.
func randomInstances(t *testing.T, n int, seed uint64) []*graph.Instance {
	t.Helper()
	r := rng.New(seed)
	out := make([]*graph.Instance, 0, n)
	for i := 0; i < n; i++ {
		inst := datasets.InitialPISAInstance(r.Split())
		// Randomly densify some instances so non-chain structure is
		// covered too.
		rr := r.Split()
		for j := 0; j < rr.Intn(4); j++ {
			nt := inst.Graph.NumTasks()
			u, v := rr.Intn(nt), rr.Intn(nt)
			if u != v && !inst.Graph.HasDep(u, v) && !inst.Graph.Reaches(v, u) {
				inst.Graph.MustAddDep(u, v, rr.Float64())
			}
		}
		if err := inst.Validate(); err != nil {
			t.Fatalf("generator produced invalid instance: %v", err)
		}
		out = append(out, inst)
	}
	return out
}

// TestAllSchedulersProduceValidSchedules is the central correctness
// property: every algorithm, on every random instance, yields a schedule
// satisfying all Section II validity constraints.
func TestAllSchedulersProduceValidSchedules(t *testing.T) {
	instances := randomInstances(t, 40, 0xBEEF)
	for _, name := range allNames {
		name := name
		t.Run(name, func(t *testing.T) {
			s, err := scheduler.New(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, inst := range instances {
				sch, err := scheduler.Schedule(s, inst)
				if err != nil {
					t.Fatalf("instance %d: %v", i, err)
				}
				if err := schedule.Validate(inst, sch); err != nil {
					t.Fatalf("instance %d: invalid schedule: %v", i, err)
				}
			}
		})
	}
}

// TestSchedulersValidOnDatasets runs the 15 experimental algorithms on
// one instance of every Table II dataset — covering large networks
// (Edge/Fog/Cloud), infinite links (Chameleon) and every workflow
// topology.
func TestSchedulersValidOnDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset sweep in -short mode")
	}
	for _, ds := range datasets.TableII {
		instances, err := datasets.Dataset(ds, 1, 99)
		if err != nil {
			t.Fatal(err)
		}
		inst := instances[0]
		for _, s := range Experimental() {
			sch, err := scheduler.Schedule(s, inst)
			if err != nil {
				t.Fatalf("%s on %s: %v", s.Name(), ds, err)
			}
			if err := schedule.Validate(inst, sch); err != nil {
				t.Fatalf("%s on %s: %v", s.Name(), ds, err)
			}
		}
	}
}

func TestSchedulersDeterministic(t *testing.T) {
	instances := randomInstances(t, 5, 0xD0)
	for _, name := range allNames {
		s1, _ := scheduler.New(name)
		s2, _ := scheduler.New(name)
		for i, inst := range instances {
			a, err := scheduler.Schedule(s1, inst)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			b, err := scheduler.Schedule(s2, inst)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !graph.ApproxEq(a.Makespan(), b.Makespan()) {
				t.Fatalf("%s not deterministic on instance %d: %v vs %v",
					name, i, a.Makespan(), b.Makespan())
			}
		}
	}
}

func TestFastestNodeIsSerialOnFastestNode(t *testing.T) {
	for _, inst := range randomInstances(t, 10, 0xFA) {
		s, _ := scheduler.New("FastestNode")
		sch, err := scheduler.Schedule(s, inst)
		if err != nil {
			t.Fatal(err)
		}
		fast := inst.Net.FastestNode()
		total := 0.0
		for _, a := range sch.ByTask {
			if a.Node != fast {
				t.Fatalf("task %d on node %d, want fastest node %d", a.Task, a.Node, fast)
			}
			total += a.End - a.Start
		}
		// Serial execution with no communication: makespan equals the sum
		// of execution times (no gaps are ever needed on one node).
		if !graph.ApproxEq(sch.Makespan(), total) {
			t.Fatalf("FastestNode makespan %v != total exec %v", sch.Makespan(), total)
		}
	}
}

func TestMETPicksFastestUnderRelatedMachines(t *testing.T) {
	// Under related machines every task's minimum execution time is on
	// the fastest node, so MET's placements coincide with FastestNode's.
	for _, inst := range randomInstances(t, 10, 0x3E) {
		met, _ := scheduler.New("MET")
		sch, err := scheduler.Schedule(met, inst)
		if err != nil {
			t.Fatal(err)
		}
		fast := inst.Net.FastestNode()
		for _, a := range sch.ByTask {
			if inst.Net.Speeds[a.Node] != inst.Net.Speeds[fast] {
				t.Fatalf("MET placed task %d on non-fastest node %d", a.Task, a.Node)
			}
		}
	}
}

func TestDuplexNoWorseThanMinMinAndMaxMin(t *testing.T) {
	for _, inst := range randomInstances(t, 20, 0xDD) {
		duplex, _ := scheduler.New("Duplex")
		minmin, _ := scheduler.New("MinMin")
		maxmin, _ := scheduler.New("MaxMin")
		d, err := scheduler.Schedule(duplex, inst)
		if err != nil {
			t.Fatal(err)
		}
		mn, err := scheduler.Schedule(minmin, inst)
		if err != nil {
			t.Fatal(err)
		}
		mx, err := scheduler.Schedule(maxmin, inst)
		if err != nil {
			t.Fatal(err)
		}
		best := mn.Makespan()
		if mx.Makespan() < best {
			best = mx.Makespan()
		}
		if !graph.ApproxEq(d.Makespan(), best) {
			t.Fatalf("Duplex %v != min(MinMin %v, MaxMin %v)",
				d.Makespan(), mn.Makespan(), mx.Makespan())
		}
	}
}

func TestBruteForceOptimalAmongHeuristics(t *testing.T) {
	bf, _ := scheduler.New("BruteForce")
	for _, inst := range randomInstances(t, 8, 0xB0) {
		opt, err := scheduler.Schedule(bf, inst)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range Experimental() {
			sch, err := scheduler.Schedule(s, inst)
			if err != nil {
				t.Fatal(err)
			}
			if sch.Makespan() < opt.Makespan()-graph.Eps {
				t.Fatalf("%s beat BruteForce: %v < %v", s.Name(), sch.Makespan(), opt.Makespan())
			}
		}
	}
}

func TestBruteForceRejectsLargeInstances(t *testing.T) {
	g := graph.NewTaskGraph()
	for i := 0; i < 30; i++ {
		g.AddTask(fmt.Sprintf("t%d", i), 1)
	}
	inst := graph.NewInstance(g, graph.NewNetwork(2))
	bf, _ := scheduler.New("BruteForce")
	if _, err := scheduler.Schedule(bf, inst); err == nil {
		t.Fatal("BruteForce accepted a 30-task instance")
	}
	smt, _ := scheduler.New("SMT")
	if _, err := scheduler.Schedule(smt, inst); err == nil {
		t.Fatal("SMT accepted a 30-task instance")
	}
}

func TestSMTWithinEpsilonOfBruteForce(t *testing.T) {
	bf := BruteForce{}
	smt := SMT{}
	for _, inst := range randomInstances(t, 8, 0x57) {
		opt, err := scheduler.Schedule(bf, inst)
		if err != nil {
			t.Fatal(err)
		}
		near, err := scheduler.Schedule(smt, inst)
		if err != nil {
			t.Fatal(err)
		}
		if near.Makespan() > opt.Makespan()*(1+smtEpsilon)+graph.Eps {
			t.Fatalf("SMT makespan %v exceeds (1+eps) x optimal %v",
				near.Makespan(), opt.Makespan())
		}
		if near.Makespan() < opt.Makespan()-graph.Eps {
			t.Fatalf("SMT makespan %v below optimal %v", near.Makespan(), opt.Makespan())
		}
	}
}

func TestHEFTKnownInstance(t *testing.T) {
	// The Fig 1 example: frozen expected makespans, hand-checked against
	// the schedule in the paper's Fig 1c (HEFT uses nodes 2 and 3 and
	// finishes shortly after t4).
	inst := datasets.Fig1Instance()
	heft, _ := scheduler.New("HEFT")
	sch, err := scheduler.Schedule(heft, inst)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.ApproxEq(sch.Makespan(), 4.25) {
		t.Fatalf("HEFT on Fig 1 = %v, want 4.25", sch.Makespan())
	}
}

func TestCPoPPinsCriticalPathToOneNode(t *testing.T) {
	// On a pure chain every task is on the critical path, so CPoP must
	// serialize the whole chain on a single node — the one minimizing
	// total execution (the fastest).
	g := graph.NewTaskGraph()
	prev := -1
	for i := 0; i < 5; i++ {
		t := g.AddTask(fmt.Sprintf("t%d", i), 1+float64(i))
		if prev >= 0 {
			g.MustAddDep(prev, t, 1)
		}
		prev = t
	}
	net := graph.NewNetwork(3)
	net.Speeds[0], net.Speeds[1], net.Speeds[2] = 1, 3, 2
	inst := graph.NewInstance(g, net)
	cpop, _ := scheduler.New("CPoP")
	sch, err := scheduler.Schedule(cpop, inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range sch.ByTask {
		if a.Node != 1 {
			t.Fatalf("critical-path task %d on node %d, want fastest node 1", a.Task, a.Node)
		}
	}
}

func TestETFIgnoresInsertionAndUsesEarliestStart(t *testing.T) {
	// Two ready tasks, two idle identical nodes: ETF must start both at
	// time 0 on different nodes (earliest start first).
	g := graph.NewTaskGraph()
	g.AddTask("a", 5)
	g.AddTask("b", 1)
	inst := graph.NewInstance(g, graph.NewNetwork(2))
	etf, _ := scheduler.New("ETF")
	sch, err := scheduler.Schedule(etf, inst)
	if err != nil {
		t.Fatal(err)
	}
	if sch.ByTask[0].Start != 0 || sch.ByTask[1].Start != 0 {
		t.Fatalf("ETF did not start both ready tasks at 0: %+v", sch.ByTask)
	}
	if sch.ByTask[0].Node == sch.ByTask[1].Node {
		t.Fatal("ETF serialized two ready tasks on idle network")
	}
}

func TestOLBUsesEarliestAvailableNode(t *testing.T) {
	// Three independent tasks, two nodes with different speeds: OLB
	// ignores speed, so tasks alternate by availability.
	g := graph.NewTaskGraph()
	g.AddTask("a", 4)
	g.AddTask("b", 4)
	g.AddTask("c", 1)
	net := graph.NewNetwork(2)
	net.Speeds[0], net.Speeds[1] = 1, 100
	inst := graph.NewInstance(g, net)
	olb, _ := scheduler.New("OLB")
	sch, err := scheduler.Schedule(olb, inst)
	if err != nil {
		t.Fatal(err)
	}
	// a goes to node 0 (both idle, lowest index). b must go to node 1
	// (still idle). c goes to whichever is free sooner — node 1.
	if sch.ByTask[0].Node != 0 || sch.ByTask[1].Node != 1 {
		t.Fatalf("OLB placements: %+v", sch.ByTask)
	}
	if sch.ByTask[2].Node != 1 {
		t.Fatalf("OLB third task on node %d, want 1 (earliest available)", sch.ByTask[2].Node)
	}
}

func TestMCTBeatsOLBOnHeterogeneousSpeeds(t *testing.T) {
	// MCT considers completion time, so on a strongly heterogeneous
	// network it should never lose to OLB on independent equal tasks.
	g := graph.NewTaskGraph()
	for i := 0; i < 6; i++ {
		g.AddTask(fmt.Sprintf("t%d", i), 10)
	}
	net := graph.NewNetwork(3)
	net.Speeds[0], net.Speeds[1], net.Speeds[2] = 1, 10, 10
	inst := graph.NewInstance(g, net)
	mct, _ := scheduler.New("MCT")
	olb, _ := scheduler.New("OLB")
	a, err := scheduler.Schedule(mct, inst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scheduler.Schedule(olb, inst)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan() > b.Makespan()+graph.Eps {
		t.Fatalf("MCT (%v) worse than OLB (%v) on heterogeneous speeds",
			a.Makespan(), b.Makespan())
	}
}

func TestWBASeededReproducible(t *testing.T) {
	inst := randomInstances(t, 1, 0x5EED)[0]
	a, err := scheduler.Schedule(newWBA(123, 10), inst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scheduler.Schedule(newWBA(123, 10), inst)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan() != b.Makespan() {
		t.Fatal("WBA with equal seeds diverged")
	}
}

func TestWBAMoreRoundsNoWorse(t *testing.T) {
	// Rounds are independent constructions with the best kept, and round
	// streams are prefix-stable (Split order), so 20 rounds can only
	// improve on the first 5.
	inst := randomInstances(t, 1, 0x5EED)[0]
	few, err := scheduler.Schedule(newWBA(9, 5), inst)
	if err != nil {
		t.Fatal(err)
	}
	many, err := scheduler.Schedule(newWBA(9, 20), inst)
	if err != nil {
		t.Fatal(err)
	}
	if many.Makespan() > few.Makespan()+graph.Eps {
		t.Fatalf("more WBA rounds made it worse: %v > %v", many.Makespan(), few.Makespan())
	}
}

func TestRequirementsMatchPaper(t *testing.T) {
	// Section VI: node weights pinned for ETF, FCP, FLB; link weights
	// pinned for BIL, GDL, FCP, FLB.
	wantNodes := map[string]bool{"ETF": true, "FCP": true, "FLB": true}
	wantLinks := map[string]bool{"BIL": true, "GDL": true, "FCP": true, "FLB": true}
	for _, name := range ExperimentalNames {
		s, _ := scheduler.New(name)
		req := scheduler.RequirementsOf(s)
		if req.HomogeneousNodes != wantNodes[name] {
			t.Errorf("%s HomogeneousNodes = %v, want %v", name, req.HomogeneousNodes, wantNodes[name])
		}
		if req.HomogeneousLinks != wantLinks[name] {
			t.Errorf("%s HomogeneousLinks = %v, want %v", name, req.HomogeneousLinks, wantLinks[name])
		}
	}
}

func TestTable1Roster(t *testing.T) {
	// All 17 Table I algorithms are registered.
	for _, name := range allNames {
		if _, err := scheduler.New(name); err != nil {
			t.Errorf("Table I algorithm %s not registered: %v", name, err)
		}
	}
	if len(allNames) != 17 {
		t.Fatalf("roster has %d algorithms, want 17", len(allNames))
	}
	if len(ExperimentalNames) != 15 {
		t.Fatalf("experimental roster has %d algorithms, want 15", len(ExperimentalNames))
	}
	if len(AppSpecificNames) != 6 {
		t.Fatalf("app-specific roster has %d algorithms, want 6", len(AppSpecificNames))
	}
}

func TestSingleNodeNetwork(t *testing.T) {
	// Every scheduler must handle a single-node network (all tasks
	// serial, no communication).
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 2)
	g.MustAddDep(a, b, 5)
	inst := graph.NewInstance(g, graph.NewNetwork(1))
	for _, name := range allNames {
		s, _ := scheduler.New(name)
		sch, err := scheduler.Schedule(s, inst)
		if err != nil {
			t.Fatalf("%s on single node: %v", name, err)
		}
		if err := schedule.Validate(inst, sch); err != nil {
			t.Fatalf("%s on single node: %v", name, err)
		}
		if !graph.ApproxEq(sch.Makespan(), 3) {
			t.Fatalf("%s single-node makespan = %v, want 3", name, sch.Makespan())
		}
	}
}

func TestSingleTaskGraph(t *testing.T) {
	g := graph.NewTaskGraph()
	g.AddTask("only", 6)
	net := graph.NewNetwork(3)
	net.Speeds[2] = 2
	inst := graph.NewInstance(g, net)
	for _, name := range allNames {
		s, _ := scheduler.New(name)
		sch, err := scheduler.Schedule(s, inst)
		if err != nil {
			t.Fatalf("%s on single task: %v", name, err)
		}
		if err := schedule.Validate(inst, sch); err != nil {
			t.Fatalf("%s on single task: %v", name, err)
		}
	}
}

func TestZeroCostTasksHandled(t *testing.T) {
	// PISA perturbations can drive task and dependency costs to exactly
	// zero (Fig 5's task B); schedulers must stay valid.
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 0)
	b := g.AddTask("b", 0)
	c := g.AddTask("c", 1)
	g.MustAddDep(a, b, 0)
	g.MustAddDep(b, c, 0)
	net := graph.NewNetwork(2)
	net.Speeds[1] = 2
	inst := graph.NewInstance(g, net)
	for _, name := range allNames {
		s, _ := scheduler.New(name)
		sch, err := scheduler.Schedule(s, inst)
		if err != nil {
			t.Fatalf("%s on zero-cost tasks: %v", name, err)
		}
		if err := schedule.Validate(inst, sch); err != nil {
			t.Fatalf("%s on zero-cost tasks: %v", name, err)
		}
	}
}

func TestDisconnectedGraphHandled(t *testing.T) {
	g := graph.NewTaskGraph()
	g.AddTask("a", 1)
	g.AddTask("b", 2)
	g.AddTask("c", 3)
	inst := graph.NewInstance(g, graph.NewNetwork(2))
	for _, name := range allNames {
		s, _ := scheduler.New(name)
		sch, err := scheduler.Schedule(s, inst)
		if err != nil {
			t.Fatalf("%s on independent tasks: %v", name, err)
		}
		if err := schedule.Validate(inst, sch); err != nil {
			t.Fatalf("%s on independent tasks: %v", name, err)
		}
	}
}
