package schedule

import (
	"math"
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
// every task at its earliest start (placeEFT) — any node, any insertion
// policy, topological order — always yields a schedule that passes the Section II validator.
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
			placeEFT(t, b, task, p.nodes[task], p.insertion[task])
		}
		s := &Schedule{}
		if err := b.ScheduleInto(s); err != nil {
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
			a := placeEFT(t, b, task, p.nodes[task], p.insertion[task])
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

// enablingPredecessor is the per-node enabling-predecessor walk
// FillReadyRow replaced, kept as the oracle for
// TestFillReadyRowMatchesPerNode: the placed predecessor whose data
// arrives last at node v (the first on ties) and its arrival time; ok is
// false if t has no predecessors or one is unplaced.
func (b *Builder) enablingPredecessor(t, v int) (pred int, arrive float64, ok bool) {
	pred = -1
	for _, d := range b.inst.Graph.Pred[t] {
		u := d.To
		if !b.placed[u] {
			return -1, 0, false
		}
		au := b.byTask[u]
		at := au.End + b.commTime(d.Cost, au.Node, v)
		if at > arrive || pred == -1 {
			arrive, pred = at, u
		}
	}
	if pred == -1 {
		return -1, 0, false
	}
	return pred, arrive, true
}

// TestFillReadyRowMatchesPerNode holds the one-pass ready row to
// ReadyTime and the enabling-predecessor walk on every node, bit for bit,
// over seeded random partial placements: entry tasks, predecessors
// sharing a node, zero-cost edges, one-node networks, and an integer grid
// of times and link strengths on which arrivals tie.
func TestFillReadyRowMatchesPerNode(t *testing.T) {
	for seed := int64(1); seed <= 80; seed++ {
		r := rand.New(rand.NewSource(seed))
		nTasks, nNodes := 10+r.Intn(30), 1+r.Intn(5)
		grid := r.Intn(2) == 0 // integer times and strengths: many ties
		weight := func() float64 {
			if grid || r.Intn(4) == 0 {
				return float64(r.Intn(4)) // zero a quarter of the time
			}
			return r.Float64() * 4
		}
		g := graph.NewTaskGraph()
		for i := 0; i < nTasks; i++ {
			g.AddTask("t", weight())
		}
		for j := 1; j < nTasks; j++ {
			for k := r.Intn(4); k > 0; k-- {
				if i := r.Intn(j); !g.HasDep(i, j) {
					g.MustAddDep(i, j, weight())
				}
			}
		}
		net := graph.NewNetwork(nNodes)
		for v := 0; v < nNodes; v++ {
			if !grid {
				net.Speeds[v] = 0.25 + r.Float64()*2
			}
			for u := v + 1; u < nNodes; u++ {
				s := float64(1 + r.Intn(2))
				if !grid {
					s = 0.25 + r.Float64()*2
				}
				net.SetLink(v, u, s)
			}
		}
		b := NewBuilder(graph.NewInstance(g, net))
		ready, enab := make([]float64, nNodes), make([]int32, nNodes)
		check := func() {
			t.Helper()
			for task := 0; task < nTasks; task++ {
				ok := b.FillReadyRow(task, ready, enab)
				for v := 0; v < nNodes; v++ {
					want, wantOK := b.ReadyTime(task, v)
					if ok != wantOK {
						t.Fatalf("seed %d task %d: FillReadyRow ok=%v, ReadyTime ok=%v", seed, task, ok, wantOK)
					}
					if !ok {
						break
					}
					if math.Float64bits(ready[v]) != math.Float64bits(want) {
						t.Fatalf("seed %d task %d node %d: row %v, ReadyTime %v", seed, task, v, ready[v], want)
					}
					pred, arrive, hasPred := b.enablingPredecessor(task, v)
					wantEnab := int32(-1)
					if hasPred {
						wantEnab = int32(b.Assignment(pred).Node)
						if math.Float64bits(arrive) != math.Float64bits(ready[v]) {
							t.Fatalf("seed %d task %d node %d: enabling arrival %v, row %v", seed, task, v, arrive, ready[v])
						}
					}
					if enab[v] != wantEnab {
						t.Fatalf("seed %d task %d node %d: enabling node %d, per-node walk %d", seed, task, v, enab[v], wantEnab)
					}
				}
			}
		}
		// Place a random subset in index (= topological) order, checking
		// every task's row after each step, with the odd Unplace.
		for task := 0; task < nTasks; task++ {
			if _, ok := b.ReadyTime(task, 0); !ok || r.Intn(4) == 0 {
				continue
			}
			v := r.Intn(nNodes)
			start := float64(r.Intn(6))
			if !grid {
				start = r.Float64() * 6
			}
			b.Place(task, v, start)
			if r.Intn(10) == 0 {
				b.Unplace(task)
			}
			check()
		}
	}
}

// TestEarliestStartPlainMaxIsMathMax pins the plain comparison that
// replaced math.Max in the append (no-insertion) start: on every value a
// builder produces the two agree bit for bit. They could differ only on
// NaN (Instance.Validate refuses non-finite weights) or on a -0 operand,
// and even -0 weights never yield a -0 time: a start is +0 or a sum with
// a positive term, and a free transfer adds +0.
func TestEarliestStartPlainMaxIsMathMax(t *testing.T) {
	negZero := math.Copysign(0, -1)
	g := graph.NewTaskGraph()
	for i := 0; i < 6; i++ {
		cost := 0.0
		switch i % 3 {
		case 1:
			cost = negZero
		case 2:
			cost = float64(i)
		}
		g.AddTask("t", cost)
	}
	g.MustAddDep(0, 1, negZero)
	g.MustAddDep(1, 2, 0)
	g.MustAddDep(1, 3, 1)
	g.MustAddDep(2, 4, negZero)
	g.MustAddDep(3, 5, 2)
	net := graph.NewNetwork(2)
	net.SetLink(0, 1, 1)
	b := NewBuilder(graph.NewInstance(g, net))
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range order {
		for v := 0; v < 2; v++ {
			r, _ := b.ReadyTime(task, v)
			avail := b.NodeAvailable(v)
			for _, ready := range []float64{r, 0, avail, avail + 1, avail / 2} {
				got := b.EarliestStart(v, ready, 0, false)
				if want := math.Max(ready, avail); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("task %d node %d ready %v: plain max %v, math.Max %v", task, v, ready, got, want)
				}
			}
		}
		a := placeEFT(t, b, task, i%2, false)
		if math.Signbit(a.Start) || math.Signbit(a.End) {
			t.Fatalf("task %d placed at %v..%v: a builder time is -0", task, a.Start, a.End)
		}
	}
}
