package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"saga/internal/graph"
)

// searchInsert is Place's timeline insertion before it appended blocks
// that sort after the last entry, kept verbatim as the oracle for
// TestPlaceAppendMatchesSearch: a binary search for the first entry not
// below a in (Start, End) order, then a shifting insert.
func searchInsert(tl []Assignment, a Assignment) []Assignment {
	lo, hi := 0, len(tl)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m := tl[mid]; m.Start < a.Start || (m.Start == a.Start && m.End < a.End) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	tl = append(tl, Assignment{})
	copy(tl[lo+1:], tl[lo:])
	tl[lo] = a
	return tl
}

// TestPlaceAppendMatchesSearch holds Place's append fast path to the
// search-only insertion entry for entry. Seeded sequences place tasks, a
// quarter of them zero-cost, at their node's available time (the
// no-insertion case), at the last entry's start or end (a zero-duration
// task at the same instant as a block, and repeats of a zero-duration
// entry's (Start, End) pair), at an existing entry's start or end, and
// at random earlier times; one operation in five Unplaces the latest or
// a random placed task, so appends follow removals.
func TestPlaceAppendMatchesSearch(t *testing.T) {
	const nTasks, nNodes = 40, 3
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := graph.NewTaskGraph()
		for tk := 0; tk < nTasks; tk++ {
			cost := float64(r.Intn(4))
			if r.Intn(4) == 0 {
				cost = 0
			}
			g.AddTask(fmt.Sprintf("t%d", tk), cost)
		}
		b := newBuilder(graph.NewInstance(g, graph.NewNetwork(nNodes)))
		ref := make([][]Assignment, nNodes)
		var stack []int // placed tasks, latest last
		for op := 0; op < 300; op++ {
			if len(stack) > 0 && (len(stack) == nTasks || r.Intn(5) == 0) {
				i := len(stack) - 1
				if r.Intn(2) == 0 {
					i = r.Intn(len(stack))
				}
				tk := stack[i]
				stack = append(stack[:i], stack[i+1:]...)
				v := b.Assignment(tk).Node
				b.Unplace(tk)
				for j := len(ref[v]) - 1; j >= 0; j-- {
					if ref[v][j].Task == tk {
						ref[v] = append(ref[v][:j], ref[v][j+1:]...)
						break
					}
				}
			} else {
				tk := r.Intn(nTasks)
				for b.Placed(tk) {
					tk = (tk + 1) % nTasks
				}
				v := r.Intn(nNodes)
				tl := ref[v]
				start := b.NodeAvailable(v)
				if n := len(tl); n > 0 {
					switch r.Intn(6) {
					case 0:
						start = tl[n-1].Start
					case 1:
						start = tl[n-1].End
					case 2:
						e := tl[r.Intn(n)]
						start = e.Start
						if r.Intn(2) == 0 {
							start = e.End
						}
					case 3:
						start = float64(r.Intn(int(start) + 1))
					}
				}
				got := b.Place(tk, v, start)
				want := Assignment{Task: tk, Node: v, Start: start, End: start + g.Tasks[tk].Cost}
				if got != want {
					t.Fatalf("seed %d op %d: Place returned %+v, want %+v", seed, op, got, want)
				}
				ref[v] = searchInsert(ref[v], want)
				stack = append(stack, tk)
			}
			for v := range ref {
				tl := b.timelines[v]
				if len(tl) != len(ref[v]) {
					t.Fatalf("seed %d op %d node %d: %d entries, search oracle %d", seed, op, v, len(tl), len(ref[v]))
				}
				for j := range tl {
					if tl[j] != ref[v][j] {
						t.Fatalf("seed %d op %d node %d entry %d: %+v, search oracle %+v", seed, op, v, j, tl[j], ref[v][j])
					}
				}
			}
		}
	}
}

// bisectEarliestStart is EarliestStart's insertion search before it
// galloped back from the timeline's end, kept verbatim as the oracle for
// TestEarliestStartMatchesBisection: a bisection of the whole timeline
// for the first entry with End > ready, then the gap scan.
func bisectEarliestStart(tl []Assignment, ready, duration float64) float64 {
	lo, hi := 0, len(tl)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tl[mid].End <= ready {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := ready
	for _, a := range tl[lo:] {
		if start+duration <= a.Start {
			return start
		}
		if a.End > start {
			start = a.End
		}
	}
	return start
}

// TestEarliestStartMatchesBisection holds the galloping insertion search
// to the whole-timeline bisection. Seeded sequences build non-overlapping
// timelines out of blocks, a quarter of them zero-duration, placed at an
// insertion or append start or at an entry's Start or End, so equal
// (Start, End) pairs and zero-duration blocks at a block's edge occur;
// one operation in five Unplaces a task. After every operation each
// node is probed with ready times before its first entry, after its
// last, on every entry's Start and End, and at random points, for
// durations of 0, 1, a random value and one longer than any gap.
func TestEarliestStartMatchesBisection(t *testing.T) {
	const nTasks, nNodes = 48, 3
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := graph.NewTaskGraph()
		for tk := 0; tk < nTasks; tk++ {
			cost := float64(1 + r.Intn(4))
			if r.Intn(4) == 0 {
				cost = 0
			}
			g.AddTask(fmt.Sprintf("t%d", tk), cost)
		}
		b := newBuilder(graph.NewInstance(g, graph.NewNetwork(nNodes)))
		var placed []int
		for op := 0; op < 200; op++ {
			if len(placed) > 0 && (len(placed) == nTasks || r.Intn(5) == 0) {
				i := r.Intn(len(placed))
				b.Unplace(placed[i])
				placed = append(placed[:i], placed[i+1:]...)
			} else {
				tk := r.Intn(nTasks)
				for b.Placed(tk) {
					tk = (tk + 1) % nTasks
				}
				v := r.Intn(nNodes)
				tl := b.timelines[v]
				dur := g.Tasks[tk].Cost
				start := b.EarliestStart(v, float64(r.Intn(12)), dur, r.Intn(2) == 0)
				if n := len(tl); n > 0 && dur == 0 && r.Intn(2) == 0 {
					e := tl[r.Intn(n)]
					start = e.Start
					if r.Intn(2) == 0 {
						start = e.End
					}
				}
				b.Place(tk, v, start)
				placed = append(placed, tk)
			}
			for v := 0; v < nNodes; v++ {
				tl := b.timelines[v]
				probes := []float64{0, b.NodeAvailable(v) + 1, float64(r.Intn(20)), r.Float64() * 20}
				for j, a := range tl {
					if j > 0 && a.End < tl[j-1].End {
						t.Fatalf("seed %d op %d node %d: End decreases at entry %d: %+v after %+v", seed, op, v, j, a, tl[j-1])
					}
					probes = append(probes, a.Start, a.End)
				}
				if len(tl) > 0 {
					probes = append(probes, tl[0].Start/2)
				}
				for _, ready := range probes {
					for _, dur := range []float64{0, 1, float64(r.Intn(4)), 100} {
						got := b.EarliestStart(v, ready, dur, true)
						if want := bisectEarliestStart(tl, ready, dur); got != want {
							t.Fatalf("seed %d op %d node %d: EarliestStart(ready %v, duration %v) = %v, bisection %v; timeline %+v",
								seed, op, v, ready, dur, got, want, tl)
						}
					}
				}
			}
		}
	}
}

// TestNodeAvailableTracksTimelines holds the per-node availability
// vector that Place and Unplace maintain to its definition: after every
// operation NodeAvailable(v) is bit for bit the End of v's last timeline
// entry, or 0 for an empty timeline. Seeded runs follow package exact's
// pattern: tasks go in topological order to a random node at their
// earliest start, with insertion or without, and a backtrack Unplaces
// the latest placements in LIFO order; a quarter of the tasks cost zero.
func TestNodeAvailableTracksTimelines(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		nTasks, nNodes := 10+r.Intn(40), 1+r.Intn(4)
		g := graph.NewTaskGraph()
		for tk := 0; tk < nTasks; tk++ {
			cost := float64(r.Intn(4))
			if r.Intn(4) == 0 {
				cost = 0
			}
			g.AddTask("t", cost)
		}
		for j := 1; j < nTasks; j++ {
			if i := r.Intn(j); r.Intn(2) == 0 {
				g.MustAddDep(i, j, float64(r.Intn(3)))
			}
		}
		b := newBuilder(graph.NewInstance(g, graph.NewNetwork(nNodes)))
		check := func(op string) {
			t.Helper()
			for v := 0; v < nNodes; v++ {
				want := 0.0
				if tl := b.timelines[v]; len(tl) > 0 {
					want = tl[len(tl)-1].End
				}
				if got := b.NodeAvailable(v); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d after %s: NodeAvailable(%d) = %v, timeline says %v", seed, op, v, got, want)
				}
			}
		}
		var stack []int // placed tasks, latest last; index order is topological
		for len(stack) < nTasks {
			if len(stack) > 0 && r.Intn(4) == 0 {
				for k := 1 + r.Intn(min(len(stack), 3)); k > 0; k-- {
					b.Unplace(stack[len(stack)-1])
					stack = stack[:len(stack)-1]
					check("Unplace")
				}
				continue
			}
			tk := len(stack)
			placeEFT(t, b, tk, r.Intn(nNodes), r.Intn(2) == 0)
			stack = append(stack, tk)
			check("Place")
		}
	}
}
