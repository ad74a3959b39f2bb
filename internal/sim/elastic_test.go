package sim

import (
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	"saga/internal/schedulers"
)

// TestElasticNeverWorseThanPlanWithoutContention: with contention off,
// keeping a schedule's assignments and per-node order but starting
// everything as early as possible can only tighten the makespan, on the
// worked examples and on PISA initial instances.
func TestElasticNeverWorseThanPlanWithoutContention(t *testing.T) {
	instances := []*graph.Instance{
		datasets.Fig1Instance(),
		datasets.Fig3Instance(true),
		datasets.InitialPISAInstance(rng.New(7)),
	}
	r := rng.New(0xE1A)
	for i := 0; i < 10; i++ {
		instances = append(instances, datasets.InitialPISAInstance(r.Split()))
	}
	for _, inst := range instances {
		for _, s := range schedulers.Experimental() {
			sch, err := scheduler.Schedule(s, inst)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Execute(inst, sch, Elastic)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if res.Makespan > sch.Makespan()+graph.Eps {
				t.Fatalf("%s: elastic %v worse than planned %v",
					s.Name(), res.Makespan, sch.Makespan())
			}
		}
	}
}

// TestElasticMatchesStrictForBuilderSchedules: builder schedules start
// every task at its earliest feasible time already, so the elastic
// replay reproduces the planned makespan exactly (not just <=).
func TestElasticMatchesStrictForBuilderSchedules(t *testing.T) {
	inst := datasets.Fig1Instance()
	for _, name := range []string{"HEFT", "CPoP", "MCT", "FastestNode"} {
		s := mustNew(t, name)
		sch, err := scheduler.Schedule(s, inst)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(inst, sch, Elastic)
		if err != nil {
			t.Fatal(err)
		}
		if !graph.ApproxEq(res.Makespan, sch.Makespan()) {
			t.Fatalf("%s: elastic %v != planned %v", name, res.Makespan, sch.Makespan())
		}
	}
}

// TestElasticScalesWithCosts: doubling every task cost under a serial,
// communication-free schedule doubles the replayed makespan.
func TestElasticScalesWithCosts(t *testing.T) {
	inst := datasets.Fig1Instance()
	sch, err := scheduler.Schedule(mustNew(t, "FastestNode"), inst)
	if err != nil {
		t.Fatal(err)
	}
	doubled := inst.Clone()
	for tk := range doubled.Graph.Tasks {
		doubled.Graph.Tasks[tk].Cost *= 2
	}
	res, err := Execute(doubled, sch, Elastic)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.ApproxEq(res.Makespan, 2*sch.Makespan()) {
		t.Fatalf("elastic = %v, want %v", res.Makespan, 2*sch.Makespan())
	}
}

func TestElasticContentionSerializesTransfers(t *testing.T) {
	// Two producers on node 0 finish at the same time and both send
	// 1-second transfers to node 1. Contention-free: both consumers'
	// inputs arrive at t=2. With contention the second transfer waits:
	// arrivals at 2 and 3.
	g := graph.NewTaskGraph()
	p1 := g.AddTask("p1", 1)
	p2 := g.AddTask("p2", 1)
	c1 := g.AddTask("c1", 1)
	c2 := g.AddTask("c2", 1)
	g.MustAddDep(p1, c1, 1)
	g.MustAddDep(p2, c2, 1)
	net := graph.NewNetwork(3)
	net.SetLink(0, 1, 1)
	net.SetLink(0, 2, 1)
	net.SetLink(1, 2, 1)
	inst := graph.NewInstance(g, net)

	// Plan: p1 and p2 back-to-back on node 0? They must finish at the
	// same time to contend; put them on nodes 0 and... both transfers
	// must share the SAME directed link, so run both producers on node 0
	// sequentially and both consumers on node 1.
	plan := &schedule.Schedule{NumNodes: 3, ByTask: []schedule.Assignment{
		{Task: p1, Node: 0, Start: 0, End: 1},
		{Task: p2, Node: 0, Start: 1, End: 2},
		{Task: c1, Node: 1, Start: 2, End: 3},
		{Task: c2, Node: 1, Start: 3, End: 4},
	}}
	free, err := Execute(inst, plan, Elastic)
	if err != nil {
		t.Fatal(err)
	}
	contended, err := Execute(inst, plan, Contended)
	if err != nil {
		t.Fatal(err)
	}
	if contended.Makespan < free.Makespan-graph.Eps {
		t.Fatalf("contention improved the makespan: %v < %v", contended.Makespan, free.Makespan)
	}
	// Transfers here never overlap (producers finish 1 apart, transfers
	// take 1), so both modes agree. Force an actual clash: shrink p2 so
	// its transfer wants the link while p1's is still in flight, and
	// shrink c1 so node 1's own serialization doesn't mask the effect.
	inst.Graph.Tasks[p2].Cost = 0.2
	inst.Graph.Tasks[c1].Cost = 0.1
	plan2 := &schedule.Schedule{NumNodes: 3, ByTask: []schedule.Assignment{
		{Task: p1, Node: 0, Start: 0, End: 1},
		{Task: p2, Node: 0, Start: 1, End: 1.2},
		{Task: c1, Node: 1, Start: 2, End: 3},
		{Task: c2, Node: 1, Start: 3, End: 4},
	}}
	free2, err := Execute(inst, plan2, Elastic)
	if err != nil {
		t.Fatal(err)
	}
	cont2, err := Execute(inst, plan2, Contended)
	if err != nil {
		t.Fatal(err)
	}
	// Contention-free: p2's transfer arrives at 2.2 and c1 is done by
	// 2.1, so c2 starts at 2.2. Contended: the link is busy with p1's
	// transfer until 2, so p2's data arrives at 3.
	if !graph.ApproxEq(free2.Start[c2], 2.2) {
		t.Fatalf("free c2 start = %v, want 2.2", free2.Start[c2])
	}
	if cont2.Start[c2] < 3-graph.Eps {
		t.Fatalf("contended c2 start = %v, want >= 3 (serialized transfer)", cont2.Start[c2])
	}
	if cont2.Makespan < free2.Makespan-graph.Eps {
		t.Fatal("contention cannot shorten the makespan")
	}
}

func TestElasticContentionNeverFaster(t *testing.T) {
	r := rng.New(0xC0DE)
	for i := 0; i < 10; i++ {
		inst := datasets.InitialPISAInstance(r.Split())
		for _, name := range []string{"HEFT", "MinMin", "OLB"} {
			s := mustNew(t, name)
			sch, err := scheduler.Schedule(s, inst)
			if err != nil {
				t.Fatal(err)
			}
			free, err := Execute(inst, sch, Elastic)
			if err != nil {
				t.Fatal(err)
			}
			cont, err := Execute(inst, sch, Contended)
			if err != nil {
				t.Fatal(err)
			}
			if cont.Makespan < free.Makespan-graph.Eps {
				t.Fatalf("%s: contended %v faster than free %v",
					name, cont.Makespan, free.Makespan)
			}
		}
	}
}

func TestElasticShapeErrors(t *testing.T) {
	inst := datasets.Fig1Instance()
	if _, err := Execute(inst, &schedule.Schedule{NumNodes: 3}, Elastic); err == nil {
		t.Fatal("task-count mismatch accepted")
	}
}

func mustNew(t *testing.T, name string) scheduler.Scheduler {
	t.Helper()
	for _, s := range schedulers.Experimental() {
		if s.Name() == name {
			return s
		}
	}
	t.Fatalf("unknown scheduler %s", name)
	return nil
}
