package schedule

import (
	"fmt"
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
