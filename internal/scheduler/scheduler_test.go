package scheduler

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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
	rank := NewScratch().UpwardRank(in)
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
	rank := NewScratch().DownwardRank(in)
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
	up := NewScratch().UpwardRank(in)
	down := NewScratch().DownwardRank(in)
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
	sl := NewScratch().StaticLevel(in)
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
	order := NewScratch().TopoOrderByPriority(g, prio)
	pos := make([]int, 3)
	for i, task := range order {
		pos[task] = i
	}
	if pos[a] > pos[b] || pos[b] > pos[c] {
		t.Fatalf("TopoOrderByPriority violated precedence: %v", order)
	}
}

// named is a minimal test scheduler: a name and a ScheduleScratch that
// places nothing.
type named string

func (n named) Name() string { return string(n) }

func (named) ScheduleScratch(*graph.Instance, *Scratch, *schedule.Schedule) error { return nil }

func TestRegistry(t *testing.T) {
	Register("test-dummy", func() Scheduler { return named("test-dummy") })
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
	Register("test-dup", func() Scheduler { return named("test-dup") })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("test-dup", func() Scheduler { return named("test-dup") })
}

func TestRequirementsOfDefault(t *testing.T) {
	s := named("plain")
	if r := RequirementsOf(s); r.HomogeneousNodes || r.HomogeneousLinks {
		t.Fatal("plain scheduler reported constraints")
	}
}

// TestReadyRowsGrowOnFirstRow pins the row cache's laziness: a
// construction that reads no row (Out included) leaves the |T|·|V|
// storage unallocated, the first Row sizes it, and each new
// construction's first Row marks every row unfilled again, so a row
// filled under the previous construction's placements is refilled.
func TestReadyRowsGrowOnFirstRow(t *testing.T) {
	inst := heftPaperInstance() // a→b→c on 2 nodes
	scr := NewScratch()
	b := scr.Builder(inst)
	rows := scr.ReadyRows(inst)
	rows.Out(2)
	if cap(rows.ready) != 0 || cap(rows.enab) != 0 {
		t.Fatalf("rows allocated before any Row: cap %d, %d", cap(rows.ready), cap(rows.enab))
	}
	b.Place(0, 0, 0)
	if ready, _ := rows.Row(b, 1); len(rows.ready) != 6 || ready[1] != 3 {
		t.Fatalf("first Row: %d entries, row %v; want 6 entries, b ready on node 1 at 3", len(rows.ready), ready)
	}
	b = scr.Builder(inst)
	rows = scr.ReadyRows(inst)
	b.Place(0, 1, 0)
	if ready, _ := rows.Row(b, 1); ready[1] != 2 {
		t.Fatalf("next construction: row %v, want b ready on node 1 at 2", ready)
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

// linearComplete and linearUncomplete are ReadySet.Complete and
// Uncomplete before they found a task by bisection, kept verbatim as the
// oracle for TestReadySetBisectionMatchesLinear: a linear scan of the
// frontier.
func linearComplete(rs *ReadySet, t int) {
	for i, x := range rs.ready {
		if x == t {
			rs.ready = append(rs.ready[:i], rs.ready[i+1:]...)
			break
		}
	}
	for _, d := range rs.g.Succ[t] {
		rs.pending[d.To]--
		if rs.pending[d.To] == 0 {
			i := sort.SearchInts(rs.ready, d.To)
			rs.ready = append(rs.ready, 0)
			copy(rs.ready[i+1:], rs.ready[i:])
			rs.ready[i] = d.To
		}
	}
}

func linearUncomplete(rs *ReadySet, t int) {
	for _, d := range rs.g.Succ[t] {
		if rs.pending[d.To] == 0 {
			for i, x := range rs.ready {
				if x == d.To {
					rs.ready = append(rs.ready[:i], rs.ready[i+1:]...)
					break
				}
			}
		}
		rs.pending[d.To]++
	}
	i := sort.SearchInts(rs.ready, t)
	rs.ready = append(rs.ready, 0)
	copy(rs.ready[i+1:], rs.ready[i:])
	rs.ready[i] = t
}

// TestReadySetBisectionMatchesLinear holds Complete and Uncomplete to
// their linear-scan versions on seeded random DAGs, wide and narrow:
// each step completes a random ready task, or undoes the latest
// completion (the LIFO discipline package exact keeps), and the two
// sets' frontiers and pending counts must stay equal.
func TestReadySetBisectionMatchesLinear(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(60)
		density := r.Float64() * 0.3
		g := graph.NewTaskGraph()
		for i := 0; i < n; i++ {
			g.AddTask(fmt.Sprintf("t%d", i), 1)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < density {
					g.MustAddDep(i, j, 1)
				}
			}
		}
		got, want := NewReadySet(g), NewReadySet(g)
		var done []int
		for step := 0; step < 4*n; step++ {
			if len(done) > 0 && (got.Empty() || r.Intn(3) == 0) {
				tk := done[len(done)-1]
				done = done[:len(done)-1]
				got.Uncomplete(tk)
				linearUncomplete(want, tk)
			} else if !got.Empty() {
				tk := got.Ready()[r.Intn(len(got.Ready()))]
				done = append(done, tk)
				got.Complete(tk)
				linearComplete(want, tk)
			}
			if !slices.Equal(got.ready, want.ready) || !slices.Equal(got.pending, want.pending) {
				t.Fatalf("seed %d step %d: frontier %v pending %v, linear frontier %v pending %v",
					seed, step, got.ready, got.pending, want.ready, want.pending)
			}
		}
	}
}
