package sim

import (
	"strings"
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	"saga/internal/schedulers"
)

// TestDifferentialAllSchedulers is the cross-check this package exists
// for: for every algorithm and a spread of random instances, the
// discrete-event execution must succeed and reproduce the analytic
// start/finish times exactly, and the elastic replay must finish every
// task no later than planned. 35 instances have about half their task
// costs set to 0, as PISA's weight perturbations produce: a
// zero-duration task often starts at the same instant as a longer task
// on its node, or as its own successor.
func TestDifferentialAllSchedulers(t *testing.T) {
	r := rng.New(0x51D)
	var instances []*graph.Instance
	for i := 0; i < 15; i++ {
		instances = append(instances, datasets.InitialPISAInstance(r.Split()))
	}
	// Add structured instances: workflows and figure examples.
	instances = append(instances, datasets.Fig1Instance(), datasets.Fig3Instance(true))
	for _, wf := range []string{"blast", "montage", "genome"} {
		g, err := datasets.WorkflowRecipe(wf, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		net := graph.NewNetwork(4)
		net.Speeds[1] = 2
		instances = append(instances, graph.NewInstance(g, net))
	}
	var zeroed []*graph.Instance
	for i := 0; i < 20; i++ {
		zeroed = append(zeroed, datasets.InitialPISAInstance(r.Split()))
	}
	for _, name := range []string{"chains", "in_trees", "out_trees"} {
		insts, err := datasets.Dataset(name, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		zeroed = append(zeroed, insts...)
	}
	for _, inst := range zeroed {
		zr := r.Split()
		for tk := range inst.Graph.Tasks {
			if zr.Intn(2) == 0 {
				inst.Graph.Tasks[tk].Cost = 0
			}
		}
	}
	instances = append(instances, zeroed...)

	for _, s := range schedulers.Experimental() {
		for i, inst := range instances {
			sch, err := scheduler.Schedule(s, inst)
			if err != nil {
				t.Fatalf("%s on instance %d: %v", s.Name(), i, err)
			}
			res, err := Execute(inst, sch, Strict)
			if err != nil {
				t.Fatalf("%s on instance %d: simulation rejected schedule: %v", s.Name(), i, err)
			}
			for tk, a := range sch.ByTask {
				if res.Start[tk] != a.Start || res.Finish[tk] != a.End {
					t.Fatalf("%s instance %d task %d: simulated [%v,%v], analytic [%v,%v]",
						s.Name(), i, tk, res.Start[tk], res.Finish[tk], a.Start, a.End)
				}
			}
			if !graph.ApproxEq(res.Makespan, sch.Makespan()) {
				t.Fatalf("%s instance %d: simulated makespan %v != analytic %v",
					s.Name(), i, res.Makespan, sch.Makespan())
			}
			el, err := Execute(inst, sch, Elastic)
			if err != nil {
				t.Fatalf("%s on instance %d: elastic replay: %v", s.Name(), i, err)
			}
			if el.Makespan > sch.Makespan()+graph.Eps {
				t.Fatalf("%s instance %d: elastic makespan %v beyond planned %v",
					s.Name(), i, el.Makespan, sch.Makespan())
			}
		}
	}
}

// sameInstantSchedule builds a one-node, unit-speed instance with the
// given task costs and zero-size dependencies, and the schedule that
// starts task i at starts[i].
func sameInstantSchedule(costs []float64, deps [][2]int, starts []float64) (*graph.Instance, *schedule.Schedule) {
	g := graph.NewTaskGraph()
	for _, c := range costs {
		g.AddTask("t", c)
	}
	for _, d := range deps {
		g.MustAddDep(d[0], d[1], 0)
	}
	sch := &schedule.Schedule{NumNodes: 1}
	for tk, s := range starts {
		sch.ByTask = append(sch.ByTask, schedule.Assignment{Task: tk, Node: 0, Start: s, End: s + costs[tk]})
	}
	return graph.NewInstance(g, graph.NewNetwork(1)), sch
}

// TestSameInstantStartsFireInScheduleOrder pins the start order every
// mode uses at one instant: a zero-duration task starts and finishes
// before a longer task that starts with it on its node, and before its
// own successor, whatever the task indices.
func TestSameInstantStartsFireInScheduleOrder(t *testing.T) {
	cases := []struct {
		name   string
		costs  []float64
		deps   [][2]int
		starts []float64
	}{
		// t0 [0, 0.518] and t1 [0, 0], independent: t1 runs first.
		{"zero beside block", []float64{0.518, 0}, nil, []float64{0, 0}},
		// t1 [0, 0] feeds t0 [0, 1] locally at time 0.
		{"zero feeds successor", []float64{1, 0}, [][2]int{{1, 0}}, []float64{0, 0}},
		// The zero-cost chain a→b→c at t = 0, indexed c, b, a.
		{"zero chain", []float64{0, 0, 0}, [][2]int{{2, 1}, {1, 0}}, []float64{0, 0, 0}},
	}
	for _, c := range cases {
		inst, sch := sameInstantSchedule(c.costs, c.deps, c.starts)
		if err := schedule.Validate(inst, sch); err != nil {
			t.Fatalf("%s: the schedule itself is invalid: %v", c.name, err)
		}
		res, err := Execute(inst, sch, Strict)
		if err != nil {
			t.Fatalf("%s: Strict refused: %v", c.name, err)
		}
		for tk, a := range sch.ByTask {
			if res.Start[tk] != a.Start || res.Finish[tk] != a.End {
				t.Fatalf("%s task %d: simulated [%v,%v], planned [%v,%v]", c.name, tk, res.Start[tk], res.Finish[tk], a.Start, a.End)
			}
		}
		el, err := Execute(inst, sch, Elastic)
		if err != nil {
			t.Fatalf("%s: Elastic: %v", c.name, err)
		}
		if el.Makespan != sch.Makespan() {
			t.Fatalf("%s: elastic makespan %v, planned %v", c.name, el.Makespan, sch.Makespan())
		}
	}
}

// TestSameInstantOverlapStillRefused: ordering same-time starts does not
// excuse a real overlap. Two blocks of nonzero length starting together
// on one node are refused whichever fires first.
func TestSameInstantOverlapStillRefused(t *testing.T) {
	inst, sch := sameInstantSchedule([]float64{1, 0.5}, nil, []float64{0, 0})
	if _, err := Execute(inst, sch, Strict); err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("overlapping same-time starts: err = %v, want a busy refusal", err)
	}
}

// TestConsumerBeforeProducerDeadlocks: a node order that puts a consumer
// before its producer on the same node can never run. The consumer waits
// for an input that only the task behind it would send, so both modes
// refuse it as a deadlock.
func TestConsumerBeforeProducerDeadlocks(t *testing.T) {
	// t1 feeds t0, but t0 is planned first on the one node.
	inst, sch := sameInstantSchedule([]float64{1, 1}, [][2]int{{1, 0}}, []float64{0, 1})
	for _, mode := range []Mode{Strict, Elastic} {
		if _, err := Execute(inst, sch, mode); err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("mode %d: err = %v, want a deadlock refusal", mode, err)
		}
	}
}

func fig1Schedule(t *testing.T, name string) (*graph.Instance, *schedule.Schedule) {
	t.Helper()
	inst := datasets.Fig1Instance()
	s, err := scheduler.New(name)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := scheduler.Schedule(s, inst)
	if err != nil {
		t.Fatal(err)
	}
	return inst, sch
}

func TestExecuteRejectsEarlyStart(t *testing.T) {
	inst, sch := fig1Schedule(t, "HEFT")
	// Pull a non-source task earlier than its inputs can arrive.
	for tk := range sch.ByTask {
		if len(inst.Graph.Pred[tk]) > 0 {
			d := sch.ByTask[tk].End - sch.ByTask[tk].Start
			sch.ByTask[tk].Start = 0
			sch.ByTask[tk].End = d
			break
		}
	}
	if _, err := Execute(inst, sch, Strict); err == nil {
		t.Fatal("early start accepted")
	} else if !strings.Contains(err.Error(), "inputs delivered") && !strings.Contains(err.Error(), "busy") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestExecuteRejectsNodeOverlap(t *testing.T) {
	// Two independent tasks forced onto one node at the same time.
	g := graph.NewTaskGraph()
	g.AddTask("a", 2)
	g.AddTask("b", 2)
	inst := graph.NewInstance(g, graph.NewNetwork(1))
	sch := &schedule.Schedule{
		NumNodes: 1,
		ByTask: []schedule.Assignment{
			{Task: 0, Node: 0, Start: 0, End: 2},
			{Task: 1, Node: 0, Start: 1, End: 3},
		},
	}
	if _, err := Execute(inst, sch, Strict); err == nil {
		t.Fatal("overlapping execution accepted")
	}
}

func TestExecuteRejectsShapeMismatches(t *testing.T) {
	inst, sch := fig1Schedule(t, "HEFT")
	bad := &schedule.Schedule{NumNodes: sch.NumNodes}
	if _, err := Execute(inst, bad, Strict); err == nil {
		t.Fatal("task-count mismatch accepted")
	}
	sch2 := &schedule.Schedule{NumNodes: 99, ByTask: sch.ByTask}
	if _, err := Execute(inst, sch2, Strict); err == nil {
		t.Fatal("node-count mismatch accepted")
	}
	sch3 := &schedule.Schedule{NumNodes: sch.NumNodes, ByTask: append([]schedule.Assignment(nil), sch.ByTask...)}
	sch3.ByTask[0].Node = -1
	if _, err := Execute(inst, sch3, Strict); err == nil {
		t.Fatal("invalid node accepted")
	}
}

func TestMessageCounting(t *testing.T) {
	// Chain a→b across two nodes: exactly one remote message; same node:
	// zero.
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	g.MustAddDep(a, b, 2)
	net := graph.NewNetwork(2)
	net.SetLink(0, 1, 1)
	inst := graph.NewInstance(g, net)

	remote := &schedule.Schedule{NumNodes: 2, ByTask: []schedule.Assignment{
		{Task: 0, Node: 0, Start: 0, End: 1},
		{Task: 1, Node: 1, Start: 3, End: 4}, // 1 + 2/1 = 3 arrival
	}}
	res, err := Execute(inst, remote, Strict)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 1 {
		t.Fatalf("Messages = %d, want 1", res.Messages)
	}

	local := &schedule.Schedule{NumNodes: 2, ByTask: []schedule.Assignment{
		{Task: 0, Node: 0, Start: 0, End: 1},
		{Task: 1, Node: 0, Start: 1, End: 2},
	}}
	res2, err := Execute(inst, local, Strict)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Messages != 0 {
		t.Fatalf("local Messages = %d, want 0", res2.Messages)
	}

	// A zero-cost dependency across nodes moves no data: zero messages,
	// the count Elastic mode reports for the same schedule.
	g.SetDepCost(a, b, 0)
	free := &schedule.Schedule{NumNodes: 2, ByTask: []schedule.Assignment{
		{Task: 0, Node: 0, Start: 0, End: 1},
		{Task: 1, Node: 1, Start: 1, End: 2},
	}}
	res3, err := Execute(inst, free, Strict)
	if err != nil {
		t.Fatal(err)
	}
	el, err := Execute(inst, free, Elastic)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Messages != 0 || el.Messages != 0 {
		t.Fatalf("zero-cost remote dependency: Strict Messages = %d, Elastic Messages = %d, want 0 and 0",
			res3.Messages, el.Messages)
	}
}

func TestUtilization(t *testing.T) {
	// FastestNode on a single-node network: utilization 1 (no idle).
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 2)
	b := g.AddTask("b", 3)
	g.MustAddDep(a, b, 1)
	inst := graph.NewInstance(g, graph.NewNetwork(1))
	s, _ := scheduler.New("FastestNode")
	sch, err := scheduler.Schedule(s, inst)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(inst, sch, Strict)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.ApproxEq(res.Utilization(), 1) {
		t.Fatalf("utilization = %v, want 1", res.Utilization())
	}
}

// TestSimulatedAnnealingInstancesExecutable closes the loop with PISA:
// adversarial instances found by the annealer yield schedules that the
// simulator executes with matching makespans.
func TestSimulatedAnnealingInstancesExecutable(t *testing.T) {
	r := rng.New(0xADA)
	for i := 0; i < 10; i++ {
		inst := datasets.InitialPISAInstance(r.Split())
		for _, name := range []string{"HEFT", "CPoP", "FastestNode"} {
			s, _ := scheduler.New(name)
			sch, err := scheduler.Schedule(s, inst)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Execute(inst, sch, Strict)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !graph.ApproxEq(res.Makespan, sch.Makespan()) {
				t.Fatalf("%s: %v != %v", name, res.Makespan, sch.Makespan())
			}
		}
	}
}
