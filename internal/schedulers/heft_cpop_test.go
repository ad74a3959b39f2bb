package schedulers

import (
	"testing"

	"saga/internal/graph"
	"saga/internal/scheduler"
)

func TestHEFTInsertionImprovesOverAppend(t *testing.T) {
	// Construct a gap HEFT's insertion can exploit: a high-rank long
	// task and a low-rank short task whose inputs arrive early, with a
	// hole on the fast node before the long task's data arrives. MH uses
	// the same greedy EFT but appends; HEFT must be at least as good
	// here and strictly better on the crafted instance.
	g := graph.NewTaskGraph()
	src := g.AddTask("src", 1)
	long := g.AddTask("long", 4)
	short := g.AddTask("short", 1)
	sink := g.AddTask("sink", 1)
	g.MustAddDep(src, long, 8) // long's data is slow to arrive remotely
	g.MustAddDep(src, short, 0)
	g.MustAddDep(long, sink, 0)
	g.MustAddDep(short, sink, 0)
	net := graph.NewNetwork(2)
	net.SetLink(0, 1, 1)
	inst := graph.NewInstance(g, net)

	heft, _ := scheduler.New("HEFT")
	hs, err := scheduler.Schedule(heft, inst)
	if err != nil {
		t.Fatal(err)
	}
	// The short task must have been inserted into an idle gap: it runs
	// in parallel with (or before) the long task rather than after it.
	if hs.ByTask[short].Start >= hs.ByTask[long].End-graph.Eps &&
		hs.ByTask[short].Node == hs.ByTask[long].Node {
		t.Fatalf("HEFT appended instead of inserting: short [%v,%v], long [%v,%v]",
			hs.ByTask[short].Start, hs.ByTask[short].End,
			hs.ByTask[long].Start, hs.ByTask[long].End)
	}
}

func TestHEFTSchedulesByRankOrder(t *testing.T) {
	// Independent tasks with distinct costs: upward rank = avg exec, so
	// HEFT must place the most expensive task first (it gets the time-0
	// slot on the fastest node).
	g := graph.NewTaskGraph()
	small := g.AddTask("small", 1)
	big := g.AddTask("big", 10)
	mid := g.AddTask("mid", 5)
	net := graph.NewNetwork(1)
	inst := graph.NewInstance(g, net)
	heft, _ := scheduler.New("HEFT")
	hs, err := scheduler.Schedule(heft, inst)
	if err != nil {
		t.Fatal(err)
	}
	if !(hs.ByTask[big].Start < hs.ByTask[mid].Start &&
		hs.ByTask[mid].Start < hs.ByTask[small].Start) {
		t.Fatalf("HEFT order wrong: big %v, mid %v, small %v",
			hs.ByTask[big].Start, hs.ByTask[mid].Start, hs.ByTask[small].Start)
	}
}

func TestCPoPCriticalPathWithTies(t *testing.T) {
	// Two identical chains: both are critical (tie within Eps). All four
	// tasks are then CP tasks and must share the CP node — CPoP
	// serializes both chains.
	g := graph.NewTaskGraph()
	a1 := g.AddTask("a1", 2)
	b1 := g.AddTask("b1", 2)
	a2 := g.AddTask("a2", 2)
	b2 := g.AddTask("b2", 2)
	g.MustAddDep(a1, b1, 1)
	g.MustAddDep(a2, b2, 1)
	net := graph.NewNetwork(2)
	net.Speeds[1] = 2
	inst := graph.NewInstance(g, net)
	cpop, _ := scheduler.New("CPoP")
	cs, err := scheduler.Schedule(cpop, inst)
	if err != nil {
		t.Fatal(err)
	}
	for tk := range cs.ByTask {
		if cs.ByTask[tk].Node != 1 {
			t.Fatalf("tied critical-path task %d not on the CP node", tk)
		}
	}
}

func TestCPoPNonCriticalTasksMaySpread(t *testing.T) {
	// A critical chain plus a cheap independent task: the cheap task is
	// off the critical path and should use EFT placement — with the CP
	// node busy, it lands elsewhere.
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 10)
	b := g.AddTask("b", 10)
	g.MustAddDep(a, b, 1)
	cheap := g.AddTask("cheap", 1)
	net := graph.NewNetwork(2)
	net.Speeds[0] = 2 // CP node
	inst := graph.NewInstance(g, net)
	cpop, _ := scheduler.New("CPoP")
	cs, err := scheduler.Schedule(cpop, inst)
	if err != nil {
		t.Fatal(err)
	}
	if cs.ByTask[a].Node != 0 || cs.ByTask[b].Node != 0 {
		t.Fatal("critical chain not on the fastest node")
	}
	if cs.ByTask[cheap].Node == 0 && cs.ByTask[cheap].Start > graph.Eps {
		t.Fatalf("off-path task queued on the CP node at %v instead of using the idle node",
			cs.ByTask[cheap].Start)
	}
}

func TestHEFTvsCPoPBothDirectionsExist(t *testing.T) {
	// The Section VI-B premise: neither algorithm dominates. The frozen
	// case-study instances witness both directions.
	heft, _ := scheduler.New("HEFT")
	cpop, _ := scheduler.New("CPoP")

	type tc struct {
		inst       *graph.Instance
		worse      scheduler.Scheduler
		better     scheduler.Scheduler
		worseLabel string
	}
	// Reuse the datasets package's frozen instances indirectly via the
	// experiments tests; here, build minimal fresh witnesses.
	fork := graph.NewTaskGraph()
	b := fork.AddTask("B", 0)
	a := fork.AddTask("A", 0.8)
	c := fork.AddTask("C", 0.8)
	fork.MustAddDep(b, a, 0.0)
	fork.MustAddDep(b, c, 0.8)
	net := graph.NewNetwork(3)
	net.Speeds[0], net.Speeds[1], net.Speeds[2] = 0.3, 0.7, 0.5
	net.SetLink(0, 1, 0.6)
	net.SetLink(0, 2, 0.1)
	net.SetLink(1, 2, 0.4)
	heftLoses := graph.NewInstance(fork, net)

	for _, c2 := range []tc{{inst: heftLoses, worse: heft, better: cpop, worseLabel: "HEFT"}} {
		ws, err := scheduler.Schedule(c2.worse, c2.inst)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := scheduler.Schedule(c2.better, c2.inst)
		if err != nil {
			t.Fatal(err)
		}
		if ws.Makespan() <= bs.Makespan()+graph.Eps {
			t.Fatalf("%s was expected to lose: %v vs %v", c2.worseLabel, ws.Makespan(), bs.Makespan())
		}
	}
	_ = a
}

// TestCPoPCriticalPathFillsGap pins CPoP's insertion on the critical-path
// node. a→c is the critical path (its dependency is free on one node);
// node 0, twice as fast, is cpNode. z goes to node 1 and its successor x
// to node 0, where z's data arrives at 5: node 0 idles over [1, 5). The
// zero-cost y delays c in the priority order until x is placed, and c
// then fills the gap at [1, 2]. Appending would start c at 15.
func TestCPoPCriticalPathFillsGap(t *testing.T) {
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 2)
	c := g.AddTask("c", 2)
	z := g.AddTask("z", 1)
	x := g.AddTask("x", 20)
	y := g.AddTask("y", 0)
	g.MustAddDep(a, c, 100)
	g.MustAddDep(y, c, 0)
	g.MustAddDep(z, x, 4)
	net := graph.NewNetwork(2)
	net.Speeds[0] = 2
	inst := graph.NewInstance(g, net)

	sch, err := scheduler.Schedule(CPoP{}, inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		task, node int
		start, end float64
	}{{a, 0, 0, 1}, {c, 0, 1, 2}, {z, 1, 0, 1}, {x, 0, 5, 15}, {y, 0, 0, 0}} {
		tk, got := w.task, sch.ByTask[w.task]
		if got.Node != w.node || got.Start != w.start || got.End != w.end {
			t.Errorf("task %s: node %d [%v, %v], want node %d [%v, %v]",
				g.Tasks[tk].Name, got.Node, got.Start, got.End, w.node, w.start, w.end)
		}
	}
}
