package schedulers

import (
	"testing"

	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

var historicalNames = []string{"LMT", "ERT", "MH"}

func TestHistoricalSchedulersValid(t *testing.T) {
	instances := randomInstances(t, 30, 0x4157)
	for _, name := range historicalNames {
		s, err := scheduler.New(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, inst := range instances {
			sch, err := scheduler.Schedule(s, inst)
			if err != nil {
				t.Fatalf("%s instance %d: %v", name, i, err)
			}
			if err := schedule.Validate(inst, sch); err != nil {
				t.Fatalf("%s instance %d: %v", name, i, err)
			}
		}
	}
}

func TestHistoricalNotInPaperRosters(t *testing.T) {
	for _, name := range historicalNames {
		for _, n := range ExperimentalNames {
			if n == name {
				t.Fatalf("%s leaked into the Table I experimental roster", name)
			}
		}
		for _, n := range AppSpecificNames {
			if n == name {
				t.Fatalf("%s leaked into the Section VII roster", name)
			}
		}
	}
}

func TestLMTLevelOrdering(t *testing.T) {
	// Two-level diamond: entry at level 0, middles at level 1, sink at
	// level 2. LMT must never start a level-k task before every
	// level-(k-1) task it depends on, which Validate covers, but also
	// schedules larger middle tasks first: on a 2-node homogeneous net
	// the largest middle task starts at the entry's finish.
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 1)
	big := g.AddTask("big", 10)
	small := g.AddTask("small", 1)
	d := g.AddTask("d", 1)
	g.MustAddDep(a, big, 0)
	g.MustAddDep(a, small, 0)
	g.MustAddDep(big, d, 0)
	g.MustAddDep(small, d, 0)
	inst := graph.NewInstance(g, graph.NewNetwork(2))
	s, _ := scheduler.New("LMT")
	sch, err := scheduler.Schedule(s, inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(inst, sch); err != nil {
		t.Fatal(err)
	}
	if sch.ByTask[big].Start > sch.ByTask[small].Start+graph.Eps {
		t.Fatalf("LMT scheduled the small task (%v) before the big one (%v)",
			sch.ByTask[small].Start, sch.ByTask[big].Start)
	}
}

func TestMHMatchesHEFTOrderWithoutInsertion(t *testing.T) {
	// On communication-free graphs, static level equals upward rank, so
	// MH differs from HEFT only by insertion. Without gaps to insert
	// into (a pure chain), their makespans must agree.
	g := graph.NewTaskGraph()
	prev := -1
	for i := 0; i < 6; i++ {
		tk := g.AddTask("t", float64(i+1))
		if prev >= 0 {
			g.MustAddDep(prev, tk, 0)
		}
		prev = tk
	}
	net := graph.NewNetwork(3)
	net.Speeds[1] = 2
	inst := graph.NewInstance(g, net)
	mh, _ := scheduler.New("MH")
	heft, _ := scheduler.New("HEFT")
	a, err := scheduler.Schedule(mh, inst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scheduler.Schedule(heft, inst)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.ApproxEq(a.Makespan(), b.Makespan()) {
		t.Fatalf("MH %v != HEFT %v on a chain", a.Makespan(), b.Makespan())
	}
}

func TestERTPrefersDataLocality(t *testing.T) {
	// One producer with a large output: the consumer's ready time is
	// earliest on the producer's node, so ERT keeps them together even
	// though another node is idle.
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	g.MustAddDep(a, b, 100)
	net := graph.NewNetwork(2)
	net.SetLink(0, 1, 0.1)
	inst := graph.NewInstance(g, net)
	s, _ := scheduler.New("ERT")
	sch, err := scheduler.Schedule(s, inst)
	if err != nil {
		t.Fatal(err)
	}
	if sch.ByTask[a].Node != sch.ByTask[b].Node {
		t.Fatal("ERT split a heavy producer/consumer pair across a weak link")
	}
}

func TestHistoricalOnExtremes(t *testing.T) {
	for _, inst := range extremeInstances() {
		for _, name := range historicalNames {
			s, _ := scheduler.New(name)
			sch, err := scheduler.Schedule(s, inst)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := schedule.Validate(inst, sch); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}
