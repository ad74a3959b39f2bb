package scheduler

import (
	"testing"

	"saga/internal/graph"
	"saga/internal/schedule"
)

// heftPaperInstance is a small fork-join instance with known hand-derived
// ranks: three tasks a→{b}→c on a homogeneous 2-node network with link
// strength 1.
func heftPaperInstance() *graph.Instance {
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 2)
	b := g.AddTask("b", 4)
	c := g.AddTask("c", 2)
	g.MustAddDep(a, b, 1)
	g.MustAddDep(b, c, 3)
	return graph.NewInstance(g, graph.NewNetwork(2))
}

func TestUpwardRank(t *testing.T) {
	in := heftPaperInstance()
	rank := UpwardRank(in)
	// rank(c)=2, rank(b)=4+3+2=9, rank(a)=2+1+9=12.
	want := []float64{12, 9, 2}
	for i, w := range want {
		if !graph.ApproxEq(rank[i], w) {
			t.Errorf("rank_u[%d] = %v, want %v", i, rank[i], w)
		}
	}
}

func TestDownwardRank(t *testing.T) {
	in := heftPaperInstance()
	rank := DownwardRank(in)
	// rank_d(a)=0, rank_d(b)=2+1=3, rank_d(c)=3+4+3=10.
	want := []float64{0, 3, 10}
	for i, w := range want {
		if !graph.ApproxEq(rank[i], w) {
			t.Errorf("rank_d[%d] = %v, want %v", i, rank[i], w)
		}
	}
}

func TestUpDownRankConsistency(t *testing.T) {
	in := heftPaperInstance()
	up := UpwardRank(in)
	down := DownwardRank(in)
	// rank_u + rank_d is the through-path length: constant on a chain.
	total := up[0] + down[0]
	for i := range up {
		if !graph.ApproxEq(up[i]+down[i], total) {
			t.Errorf("through-path at %d = %v, want %v", i, up[i]+down[i], total)
		}
	}
}

func TestStaticLevel(t *testing.T) {
	in := heftPaperInstance()
	sl := StaticLevel(in)
	// Communication-free: sl(c)=2, sl(b)=6, sl(a)=8.
	want := []float64{8, 6, 2}
	for i, w := range want {
		if !graph.ApproxEq(sl[i], w) {
			t.Errorf("sl[%d] = %v, want %v", i, sl[i], w)
		}
	}
}

func TestTopoOrderByPriorityRespectsEdges(t *testing.T) {
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 0) // zero-cost: priority ties with successor
	b := g.AddTask("b", 0)
	c := g.AddTask("c", 1)
	g.MustAddDep(a, b, 0)
	g.MustAddDep(b, c, 0)
	// Priorities that a plain sort would order c, a, b — invalid.
	prio := []float64{1, 1, 2}
	order := TopoOrderByPriority(g, prio)
	pos := make([]int, 3)
	for i, task := range order {
		pos[task] = i
	}
	if pos[a] > pos[b] || pos[b] > pos[c] {
		t.Fatalf("TopoOrderByPriority violated precedence: %v", order)
	}
}

func TestRegistry(t *testing.T) {
	Register("test-dummy", func() Scheduler {
		return Func{SchedName: "test-dummy", Fn: func(in *graph.Instance) (*schedule.Schedule, error) {
			return nil, nil
		}}
	})
	s, err := New("test-dummy")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "test-dummy" {
		t.Fatalf("Name = %q", s.Name())
	}
	if _, err := New("no-such-scheduler"); err == nil {
		t.Fatal("unknown scheduler did not error")
	}
	found := false
	for _, n := range Names() {
		if n == "test-dummy" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered scheduler missing from Names")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register("test-dup", func() Scheduler { return Func{SchedName: "test-dup"} })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("test-dup", func() Scheduler { return Func{SchedName: "test-dup"} })
}

func TestRequirementsOfDefault(t *testing.T) {
	s := Func{SchedName: "plain"}
	if r := RequirementsOf(s); r.HomogeneousNodes || r.HomogeneousLinks {
		t.Fatal("plain scheduler reported constraints")
	}
}

func TestReadySetFrontier(t *testing.T) {
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	c := g.AddTask("c", 1)
	d := g.AddTask("d", 1)
	g.MustAddDep(a, c, 1)
	g.MustAddDep(b, c, 1)
	g.MustAddDep(c, d, 1)
	rs := NewReadySet(g)
	if got := rs.Ready(); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("initial frontier = %v, want [a b]", got)
	}
	rs.Complete(a)
	if got := rs.Ready(); len(got) != 1 || got[0] != b {
		t.Fatalf("after a: frontier = %v", got)
	}
	rs.Complete(b)
	if got := rs.Ready(); len(got) != 1 || got[0] != c {
		t.Fatalf("after b: frontier = %v, want [c]", got)
	}
	rs.Complete(c)
	if got := rs.Ready(); len(got) != 1 || got[0] != d {
		t.Fatalf("after c: frontier = %v, want [d]", got)
	}
	rs.Complete(d)
	if !rs.Empty() {
		t.Fatal("frontier not empty at end")
	}
}

func TestReadySetUncomplete(t *testing.T) {
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	g.MustAddDep(a, b, 1)
	rs := NewReadySet(g)
	rs.Complete(a)
	if got := rs.Ready(); len(got) != 1 || got[0] != b {
		t.Fatalf("after complete: %v", got)
	}
	rs.Uncomplete(a)
	if got := rs.Ready(); len(got) != 1 || got[0] != a {
		t.Fatalf("after uncomplete: %v, want [a]", got)
	}
	// Redo and make sure state is still consistent.
	rs.Complete(a)
	rs.Complete(b)
	if !rs.Empty() {
		t.Fatal("frontier not empty after redo")
	}
}
