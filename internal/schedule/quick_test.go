package schedule

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"saga/internal/graph"
)

// placementPlan is a quick.Generator producing a random instance plus a
// random (but precedence-respecting) placement plan: for each task in
// topological order, a node choice and whether to use insertion.
type placementPlan struct {
	inst      *graph.Instance
	nodes     []int
	insertion []bool
}

// Generate implements quick.Generator.
func (placementPlan) Generate(r *rand.Rand, size int) reflect.Value {
	nTasks := r.Intn(8) + 1
	nNodes := r.Intn(4) + 1
	g := graph.NewTaskGraph()
	for i := 0; i < nTasks; i++ {
		g.AddTask("t", r.Float64()*5)
	}
	for i := 0; i < nTasks; i++ {
		for j := i + 1; j < nTasks; j++ {
			if r.Intn(4) == 0 {
				g.MustAddDep(i, j, r.Float64()*5)
			}
		}
	}
	net := graph.NewNetwork(nNodes)
	for v := 0; v < nNodes; v++ {
		net.Speeds[v] = 0.2 + r.Float64()*3
		for u := v + 1; u < nNodes; u++ {
			net.SetLink(v, u, 0.2+r.Float64()*3)
		}
	}
	p := placementPlan{inst: graph.NewInstance(g, net)}
	for i := 0; i < nTasks; i++ {
		p.nodes = append(p.nodes, r.Intn(nNodes))
		p.insertion = append(p.insertion, r.Intn(2) == 0)
	}
	return reflect.ValueOf(p)
}

// TestQuickBuilderAlwaysValid is the builder's core invariant: placing
// every task via PlaceEFT — any node, any insertion policy, topological
// order — always yields a schedule that passes the Section II validator.
func TestQuickBuilderAlwaysValid(t *testing.T) {
	property := func(p placementPlan) bool {
		if err := p.inst.Validate(); err != nil {
			return false
		}
		b := NewBuilder(p.inst)
		order, err := p.inst.Graph.TopoOrder()
		if err != nil {
			return false
		}
		for _, task := range order {
			b.PlaceEFT(task, p.nodes[task], p.insertion[task])
		}
		s, err := b.Schedule()
		if err != nil {
			return false
		}
		return Validate(p.inst, s) == nil
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInsertionNeverLater: for the same placement sequence, the
// insertion policy can only give each task an earlier-or-equal start
// than appending, never later.
func TestQuickInsertionNeverLater(t *testing.T) {
	property := func(p placementPlan) bool {
		order, err := p.inst.Graph.TopoOrder()
		if err != nil {
			return false
		}
		withIns := NewBuilder(p.inst)
		without := NewBuilder(p.inst)
		for _, task := range order {
			// Same node choice in both builders; the partial schedules
			// may diverge, so compare the locally-offered start given
			// identical prior placements only on the first divergence.
			si, _, ok1 := withIns.EFT(task, p.nodes[task], true)
			sa, _, ok2 := without.EFT(task, p.nodes[task], false)
			if !ok1 || !ok2 {
				return false
			}
			// Only sound while both builders hold identical placements.
			if si > sa+graph.Eps {
				return false
			}
			if si != sa {
				// Divergence point reached; the comparison was still
				// valid here, stop before the states drift.
				return true
			}
			withIns.Place(task, p.nodes[task], si)
			without.Place(task, p.nodes[task], sa)
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMakespanEqualsMaxEnd: the builder's running makespan always
// equals the maximum assignment end.
func TestQuickMakespanEqualsMaxEnd(t *testing.T) {
	property := func(p placementPlan) bool {
		b := NewBuilder(p.inst)
		order, err := p.inst.Graph.TopoOrder()
		if err != nil {
			return false
		}
		maxEnd := 0.0
		for _, task := range order {
			a := b.PlaceEFT(task, p.nodes[task], p.insertion[task])
			if a.End > maxEnd {
				maxEnd = a.End
			}
			if !graph.ApproxEq(b.Makespan(), maxEnd) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// linearEarliestStart is the head-to-tail insertion scan EarliestStart
// ran before it binary-searched the End-ordered timeline, kept as the
// oracle for TestEarliestStartMatchesLinearScan.
func linearEarliestStart(tl []Assignment, ready, duration float64) float64 {
	start := ready
	for _, a := range tl {
		if start+duration <= a.Start {
			return start
		}
		if a.End > start {
			start = a.End
		}
	}
	return start
}

// TestEarliestStartMatchesLinearScan grows random timelines — zero-cost
// tasks, equal starts, blocks that touch, occasional Unplace — and after
// every step checks the (Start, End) order with its non-decreasing End,
// then compares EarliestStart bit for bit with the linear scan for ready
// times before, at, inside and after every block and durations that
// include zero and every exact gap width.
func TestEarliestStartMatchesLinearScan(t *testing.T) {
	const nTasks, nNodes = 60, 3
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := graph.NewTaskGraph()
		for i := 0; i < nTasks; i++ {
			cost := float64(r.Intn(4)) // a quarter of the tasks cost nothing
			if r.Intn(3) == 0 {
				cost = r.Float64() * 3
			}
			g.AddTask("t", cost)
		}
		in := graph.NewInstance(g, graph.NewNetwork(nNodes))
		b := NewBuilder(in)

		probe := func(v int, ready, duration float64) float64 {
			t.Helper()
			got := b.EarliestStart(v, ready, duration, true)
			if want := linearEarliestStart(b.timelines[v], ready, duration); got != want {
				t.Fatalf("seed %d node %d: EarliestStart(ready=%v, duration=%v) = %v, linear scan %v\ntimeline %v",
					seed, v, ready, duration, got, want, b.timelines[v])
			}
			return got
		}
		check := func(v int) {
			t.Helper()
			tl := b.timelines[v]
			durations := []float64{0, 0.5, 1, 2, 100}
			for i, a := range tl {
				if i > 0 {
					p := tl[i-1]
					if p.Start > a.Start || (p.Start == a.Start && p.End > a.End) || p.End > a.End {
						t.Fatalf("seed %d node %d: timeline out of (Start, End) order at %d: %v", seed, v, i, tl)
					}
					durations = append(durations, a.Start-p.End)
				}
			}
			if len(tl) > 0 && b.NodeAvailable(v) != tl[len(tl)-1].End {
				t.Fatalf("seed %d node %d: NodeAvailable = %v, last End %v", seed, v, b.NodeAvailable(v), tl[len(tl)-1].End)
			}
			for _, a := range tl {
				for _, ready := range []float64{a.Start - 0.25, a.Start, (a.Start + a.End) / 2, a.End, a.End + 0.25} {
					for _, d := range durations {
						probe(v, ready, d)
					}
				}
			}
		}

		var placed []int
		for task := 0; task < nTasks; task++ {
			v := r.Intn(nNodes)
			ready := float64(r.Intn(40)) // integer grid: ties with block edges
			if r.Intn(4) == 0 {
				ready = r.Float64() * 40
			}
			var start float64
			if r.Intn(3) == 0 {
				start = b.EarliestStart(v, ready, b.execTime(task, v), false)
			} else {
				start = probe(v, ready, b.execTime(task, v))
			}
			b.Place(task, v, start)
			placed = append(placed, task)
			check(v)
			if r.Intn(8) == 0 {
				i := r.Intn(len(placed))
				u := placed[i]
				placed = append(placed[:i], placed[i+1:]...)
				v := b.Assignment(u).Node
				b.Unplace(u)
				check(v)
			}
		}
	}
}
