package schedule

import (
	"testing"

	"saga/internal/graph"
)

// chainInstance builds a 3-task chain on a 2-node network: speeds (1, 2),
// link strength 0.5.
func chainInstance() *graph.Instance {
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 2)
	b := g.AddTask("b", 2)
	c := g.AddTask("c", 2)
	g.MustAddDep(a, b, 1)
	g.MustAddDep(b, c, 1)
	n := graph.NewNetwork(2)
	n.Speeds[0], n.Speeds[1] = 1, 2
	n.SetLink(0, 1, 0.5)
	return graph.NewInstance(g, n)
}

func TestBuilderPlaceAndMakespan(t *testing.T) {
	in := chainInstance()
	b := NewBuilder(in)
	b.Place(0, 1, 0) // exec 1
	if got := b.NodeAvailable(1); !graph.ApproxEq(got, 1) {
		t.Fatalf("NodeAvailable = %v, want 1", got)
	}
	b.Place(1, 1, 1)
	b.Place(2, 1, 2)
	if m := b.Makespan(); !graph.ApproxEq(m, 3) {
		t.Fatalf("Makespan = %v, want 3", m)
	}
	s, err := b.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(in, s); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderReadyTime(t *testing.T) {
	in := chainInstance()
	b := NewBuilder(in)
	if _, ok := b.ReadyTime(1, 0); ok {
		t.Fatal("ReadyTime reported ok with unplaced predecessor")
	}
	b.Place(0, 0, 0) // ends at 2 on node 0
	// Task 1 on node 0: data local, ready at 2.
	if r, ok := b.ReadyTime(1, 0); !ok || !graph.ApproxEq(r, 2) {
		t.Fatalf("ReadyTime local = %v (%v), want 2", r, ok)
	}
	// Task 1 on node 1: 2 + 1/0.5 = 4.
	if r, ok := b.ReadyTime(1, 1); !ok || !graph.ApproxEq(r, 4) {
		t.Fatalf("ReadyTime remote = %v (%v), want 4", r, ok)
	}
}

func TestBuilderEFTAndBestNode(t *testing.T) {
	in := chainInstance()
	b := NewBuilder(in)
	b.Place(0, 0, 0)
	// Node 0: ready 2, exec 2 → finish 4. Node 1: ready 4, exec 1 → 5.
	node, start := b.BestEFTNode(1, false)
	if node != 0 || !graph.ApproxEq(start, 2) {
		t.Fatalf("BestEFTNode = (%d, %v), want (0, 2)", node, start)
	}
}

func TestInsertionFindsGap(t *testing.T) {
	in := chainInstance()
	b := NewBuilder(in)
	// Occupy [0,1) and [3,4) on node 1; a duration-1 block ready at 0
	// should slot into the [1,3) gap with insertion, or go to 4 without.
	b.Place(0, 1, 0)
	b.Place(2, 1, 3) // place the sink early (no validity needed mid-build)
	if s := b.EarliestStart(1, 0, 1, true); !graph.ApproxEq(s, 1) {
		t.Fatalf("insertion start = %v, want 1", s)
	}
	if s := b.EarliestStart(1, 0, 1, false); !graph.ApproxEq(s, 4) {
		t.Fatalf("append start = %v, want 4", s)
	}
}

func TestInsertionRespectsReadyTime(t *testing.T) {
	in := chainInstance()
	b := NewBuilder(in)
	b.Place(0, 1, 0)
	b.Place(2, 1, 5)
	// Gap is [1,5); ready at 2 → start 2.
	if s := b.EarliestStart(1, 2, 1, true); !graph.ApproxEq(s, 2) {
		t.Fatalf("insertion start = %v, want 2", s)
	}
	// Duration 4 doesn't fit [2,5) → goes after the last task.
	if s := b.EarliestStart(1, 2, 4, true); !graph.ApproxEq(s, 6) {
		t.Fatalf("insertion start for long task = %v, want 6", s)
	}
}

func TestPlaceTwicePanics(t *testing.T) {
	in := chainInstance()
	b := NewBuilder(in)
	b.Place(0, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double placement did not panic")
		}
	}()
	b.Place(0, 1, 5)
}

func TestScheduleIncomplete(t *testing.T) {
	in := chainInstance()
	b := NewBuilder(in)
	b.Place(0, 0, 0)
	if _, err := b.Schedule(); err == nil {
		t.Fatal("incomplete schedule finalized without error")
	}
}

func TestBuilderClone(t *testing.T) {
	in := chainInstance()
	b := NewBuilder(in)
	b.Place(0, 0, 0)
	c := b.Clone()
	c.Place(1, 0, 2)
	if b.Placed(1) {
		t.Fatal("clone placement leaked into original")
	}
	if !c.Placed(1) || !c.Placed(0) {
		t.Fatal("clone lost state")
	}
}

func TestEnablingPredecessor(t *testing.T) {
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 1)
	b2 := g.AddTask("b", 1)
	c := g.AddTask("c", 1)
	g.MustAddDep(a, c, 10) // heavy input
	g.MustAddDep(b2, c, 1)
	n := graph.NewNetwork(2)
	n.SetLink(0, 1, 1)
	in := graph.NewInstance(g, n)
	bld := NewBuilder(in)
	bld.Place(0, 0, 0)
	bld.Place(1, 1, 0)
	// At node 1, a's data (end 1 + 10/1) arrives after b's local output.
	ready, enab := bld.ReadyRow(2)
	if enab[1] != 0 {
		t.Fatalf("enabling node at 1 = %d, want 0 (task a's)", enab[1])
	}
	if !graph.ApproxEq(ready[1], 11) {
		t.Fatalf("arrival = %v, want 11", ready[1])
	}
	// At node 0, a's data is local (1) and b's arrives at 1 + 1/1 = 2.
	if enab[0] != 1 || ready[0] != 2 {
		t.Fatalf("node 0: enabling node %d ready %v, want 1 and 2", enab[0], ready[0])
	}
	if _, enab := bld.ReadyRow(0); enab[0] != -1 || enab[1] != -1 {
		t.Fatalf("entry task reported an enabling predecessor: %v", enab)
	}
	// Ties go to the first predecessor: with free edges both inputs are
	// available at 1 on every node, and a (node 0) is listed first.
	g.SetDepCost(a, c, 0)
	g.SetDepCost(b2, c, 0)
	if ready, enab := bld.ReadyRow(2); enab[0] != 0 || enab[1] != 0 || ready[0] != 1 || ready[1] != 1 {
		t.Fatalf("tie: enabling nodes %v ready %v, want [0 0] and [1 1]", enab, ready)
	}
}

func validSchedule(in *graph.Instance) *Schedule {
	b := NewBuilder(in)
	order, _ := in.Graph.TopoOrder()
	for _, t := range order {
		b.PlaceEFT(t, 0, false)
	}
	s, _ := b.Schedule()
	return s
}

func TestValidateAcceptsValid(t *testing.T) {
	in := chainInstance()
	if err := Validate(in, validSchedule(in)); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsNil(t *testing.T) {
	if err := Validate(chainInstance(), nil); err == nil {
		t.Fatal("nil schedule accepted")
	}
}

func TestValidateRejectsWrongDuration(t *testing.T) {
	in := chainInstance()
	s := validSchedule(in)
	s.ByTask[0].End += 1
	if err := Validate(in, s); err == nil {
		t.Fatal("wrong duration accepted")
	}
}

func TestValidateRejectsOverlap(t *testing.T) {
	in := chainInstance()
	s := validSchedule(in)
	// Shift task 1 to overlap task 0 on the same node (keep duration).
	d := s.ByTask[1].End - s.ByTask[1].Start
	s.ByTask[1].Start = s.ByTask[0].Start + 0.1
	s.ByTask[1].End = s.ByTask[1].Start + d
	if err := Validate(in, s); err == nil {
		t.Fatal("overlap accepted")
	}
}

func TestValidateRejectsPrecedenceViolation(t *testing.T) {
	in := chainInstance()
	b := NewBuilder(in)
	// Put task 1 on node 1 starting before task 0's output can arrive.
	b.Place(0, 0, 0)   // ends 2 on node 0
	b.Place(1, 1, 2.5) // needs ready 4 on node 1
	b.Place(2, 1, b.Makespan()+10)
	s, err := b.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(in, s); err == nil {
		t.Fatal("precedence violation accepted")
	}
}

func TestValidateRejectsInvalidNode(t *testing.T) {
	in := chainInstance()
	s := validSchedule(in)
	s.ByTask[2].Node = 9
	if err := Validate(in, s); err == nil {
		t.Fatal("invalid node accepted")
	}
}

func TestValidateRejectsNegativeStart(t *testing.T) {
	in := chainInstance()
	s := validSchedule(in)
	d := s.ByTask[0].End - s.ByTask[0].Start
	s.ByTask[0].Start = -1
	s.ByTask[0].End = -1 + d
	if err := Validate(in, s); err == nil {
		t.Fatal("negative start accepted")
	}
}

func TestValidateRejectsNodeCountMismatch(t *testing.T) {
	in := chainInstance()
	s := validSchedule(in)
	s.NumNodes = 7
	if err := Validate(in, s); err == nil {
		t.Fatal("node-count mismatch accepted")
	}
}

func TestAssignmentsSorted(t *testing.T) {
	in := chainInstance()
	s := validSchedule(in)
	as := s.Assignments()
	for i := 1; i < len(as); i++ {
		if as[i-1].Node > as[i].Node {
			t.Fatal("assignments not sorted by node")
		}
		if as[i-1].Node == as[i].Node && as[i-1].Start > as[i].Start {
			t.Fatal("assignments not sorted by start within node")
		}
	}
}

// TestZeroDurationTaskKeepsNodeAvailable pins the (Start, End) timeline
// order: a block that starts at the instant of a zero-duration task sorts
// after it whichever of the two was placed first, so the last timeline
// entry carries the node's maximum End. Ordered by Start alone, the block
// placed second landed before the zero-duration task and NodeAvailable
// returned that task's stale End.
func TestZeroDurationTaskKeepsNodeAvailable(t *testing.T) {
	g := graph.NewTaskGraph()
	g.AddTask("head", 5)
	g.AddTask("zero", 0)
	g.AddTask("block", 3)
	g.AddTask("tail", 1)
	in := graph.NewInstance(g, graph.NewNetwork(1))
	const head, zero, block, tail = 0, 1, 2, 3
	for _, order := range [][2]int{{zero, block}, {block, zero}} {
		b := NewBuilder(in)
		b.Place(head, 0, 0)
		b.Place(order[0], 0, 5)
		b.Place(order[1], 0, 5)
		if got := b.NodeAvailable(0); got != 8 {
			t.Fatalf("placing %v: NodeAvailable = %v, want 8", order, got)
		}
		tl := b.timelines[0]
		if tl[1].Task != zero || tl[2].Task != block {
			t.Fatalf("placing %v: timeline tasks %d, %d, want the zero-duration task first", order, tl[1].Task, tl[2].Task)
		}
		for _, insertion := range []bool{false, true} {
			if s := b.EarliestStart(0, 5, 1, insertion); s != 8 {
				t.Fatalf("placing %v, insertion=%v: EarliestStart = %v, want 8", order, insertion, s)
			}
		}
		b.PlaceEFT(tail, 0, false)
		s, err := b.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(in, s); err != nil {
			t.Fatalf("placing %v: %v", order, err)
		}
		// Unplace keeps the order: without the block the zero-duration
		// task is followed by the tail alone.
		b.Unplace(block)
		if tl := b.timelines[0]; len(tl) != 3 || tl[1].Task != zero || tl[2].Task != tail {
			t.Fatalf("placing %v: timeline after Unplace = %v", order, tl)
		}
	}
}
