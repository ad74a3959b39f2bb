package schedule

import (
	"fmt"
	"math"

	"saga/internal/graph"
)

// Builder incrementally constructs a schedule. It tracks per-node
// timelines so schedulers can query earliest feasible start times — with
// or without insertion into idle gaps — and data-ready times implied by
// already-placed prerequisites.
//
// Each node's timeline is kept ordered by (Start, End). Schedulers place
// non-overlapping blocks, so End is non-decreasing along a timeline as
// well: a zero-duration task sorts before the block that starts at the
// same instant, the last entry carries the node's maximum End (what
// NodeAvailable reads), and EarliestStart can binary-search past every
// block that finishes by the ready time.
//
// A Builder is reusable: Reset rebinds it to an instance and its
// precomputed tables while keeping every slice it has ever grown, so a
// warm builder runs a full scheduling pass without allocating (the
// per-worker Scratch in package scheduler owns one for exactly that
// purpose).
type Builder struct {
	inst      *graph.Instance
	nv        int         // inst.Net.NumNodes()
	links     [][]float64 // inst.Net.Links
	exec      []float64   // graph.Tables.Exec, row-major by task
	byTask    []Assignment
	placed    []bool
	timelines [][]Assignment // per node, sorted by (Start, End)
	nPlaced   int

	// row/rowEnab is the one ready row ReadyRow fills (BestEFTNode's).
	row     []float64
	rowEnab []int32
}

// Reset rebinds the builder to inst and clears all placements, reusing
// the builder's existing storage. Execution times are read from
// tab.Exec, which must have been built for inst (Scratch.Builder in
// package scheduler pairs the two). It leaves byTask contents stale —
// placed gates every read — so the reset cost is O(|T| + |V|).
func (b *Builder) Reset(inst *graph.Instance, tab *graph.Tables) {
	n := inst.Graph.NumTasks()
	nv := inst.Net.NumNodes()
	b.inst = inst
	b.nv = nv
	b.links = inst.Net.Links
	b.exec = tab.Exec
	if cap(b.byTask) < n {
		b.byTask = make([]Assignment, n)
	} else {
		b.byTask = b.byTask[:n]
	}
	if cap(b.placed) < n {
		b.placed = make([]bool, n)
	} else {
		b.placed = b.placed[:n]
		for t := range b.placed {
			b.placed[t] = false
		}
	}
	if cap(b.timelines) < nv {
		grown := make([][]Assignment, nv)
		copy(grown, b.timelines[:cap(b.timelines)])
		b.timelines = grown
	} else {
		b.timelines = b.timelines[:nv]
	}
	for v := range b.timelines {
		b.timelines[v] = b.timelines[v][:0]
	}
	if cap(b.row) < nv {
		b.row = make([]float64, nv)
		b.rowEnab = make([]int32, nv)
	}
	b.row, b.rowEnab = b.row[:nv], b.rowEnab[:nv]
	b.nPlaced = 0
}

// Instance returns the instance the builder schedules.
func (b *Builder) Instance() *graph.Instance { return b.inst }

// Placed reports whether task t has been scheduled.
func (b *Builder) Placed(t int) bool { return b.placed[t] }

// NumPlaced returns how many tasks have been scheduled so far.
func (b *Builder) NumPlaced() int { return b.nPlaced }

// Assignment returns the assignment of task t; it panics if t has not
// been placed.
func (b *Builder) Assignment(t int) Assignment {
	if !b.placed[t] {
		panic(fmt.Sprintf("schedule: task %d not placed", t))
	}
	return b.byTask[t]
}

// NodeAvailable returns the finish time of the last task on node v (0 if
// idle): the timeline's last entry, which holds the maximum End.
func (b *Builder) NodeAvailable(v int) float64 {
	tl := b.timelines[v]
	if len(tl) == 0 {
		return 0
	}
	return tl[len(tl)-1].End
}

// commTime is the builder-local fast path of Instance.CommTime for an
// edge whose data size is already at hand (adjacency lists carry the
// cost in both directions, so the per-call successor-list scan
// Instance.CommTime does is pure overhead here). The arithmetic is
// bit-identical: same-node and zero-size transfers are free, everything
// else is cost divided by the raw link strength.
func (b *Builder) commTime(cost float64, from, to int) float64 {
	if from == to || cost == 0 {
		return 0
	}
	return cost / b.links[from][to]
}

// ReadyTime returns the earliest time all of t's inputs can be available
// on node v, i.e. max over placed predecessors u of end(u) + comm(u→t).
// ok is false if some predecessor of t is not yet placed.
func (b *Builder) ReadyTime(t, v int) (ready float64, ok bool) {
	for _, d := range b.inst.Graph.Pred[t] {
		u := d.To
		if !b.placed[u] {
			return 0, false
		}
		au := b.byTask[u]
		arrive := au.End + b.commTime(d.Cost, au.Node, v)
		if arrive > ready {
			ready = arrive
		}
	}
	return ready, true
}

// FillReadyRow is ReadyTime for every node at once: one pass over t's
// predecessors sets ready[v] = ReadyTime(t, v) and enab[v] to the node of
// t's enabling predecessor at v — the placed predecessor whose data
// arrives last at v (FCP/FLB terminology), the first such on ties — or -1
// for an entry task. Both slices must be NumNodes long. ok is false, the
// row unspecified, if some predecessor of t is not yet placed.
//
// The row is bit-identical to the per-node walk: every arrival is the
// same End + comm sum, and a later predecessor replaces the running
// maximum only when it arrives strictly later. A row stays valid while
// t's predecessors keep their assignments, i.e. until one is Unplaced.
func (b *Builder) FillReadyRow(t int, ready []float64, enab []int32) (ok bool) {
	preds := b.inst.Graph.Pred[t]
	enab = enab[:len(ready)]
	if len(preds) == 0 {
		for v := range ready {
			ready[v], enab[v] = 0, -1
		}
		return true
	}
	for i, d := range preds {
		u := d.To
		if !b.placed[u] {
			return false
		}
		au := b.byTask[u]
		n, end := au.Node, au.End
		lk := b.links[n][:len(ready)]
		for v := range ready {
			// end + commTime(d.Cost, n, v): a free transfer adds +0,
			// which leaves end's bits unchanged.
			arrive := end
			if v != n && d.Cost != 0 {
				arrive += d.Cost / lk[v]
			}
			if i == 0 || arrive > ready[v] {
				ready[v], enab[v] = arrive, int32(n)
			}
		}
	}
	return true
}

// ReadyRow fills the builder's own row buffer with FillReadyRow(t) and
// returns it; the slices are valid until the next ReadyRow or BestEFTNode
// call. It panics if a predecessor of t is unplaced.
func (b *Builder) ReadyRow(t int) (ready []float64, enab []int32) {
	if !b.FillReadyRow(t, b.row, b.rowEnab) {
		panic(fmt.Sprintf("schedule: task %d has unplaced predecessors", t))
	}
	return b.row, b.rowEnab
}

// EarliestStart returns the earliest time >= ready at which a block of
// the given duration fits on node v. With insertion enabled it scans idle
// gaps between already-placed tasks (the HEFT insertion policy);
// otherwise it returns max(ready, node available time).
//
// The insertion scan starts at the first block with End > ready, found
// by binary search over the End-ordered timeline: every earlier block
// finishes by ready, so it neither delays the start nor bounds a gap the
// scan could use. One probe costs O(log k + blocks after ready) on a
// k-block timeline.
//
// Without insertion the start is max(ready, NodeAvailable(v)) by plain
// comparison rather than math.Max (an assembly call on amd64). The two
// differ only on NaN and on a ±0 pair; Instance.Validate admits only
// finite times, and no builder time is ever -0 (every start is +0 or a
// sum of non-negative terms), so the result is bit-identical.
func (b *Builder) EarliestStart(v int, ready, duration float64, insertion bool) float64 {
	tl := b.timelines[v]
	if !insertion {
		if avail := b.NodeAvailable(v); avail > ready {
			return avail
		}
		return ready
	}
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
		// Gap before a: [start, a.Start). The fit test is exact, not
		// epsilon-tolerant: a block that only fits within Eps would
		// overlap the next task by that epsilon, which the validator
		// (correctly) rejects on instances whose weights span many
		// orders of magnitude.
		if start+duration <= a.Start {
			return start
		}
		if a.End > start {
			start = a.End
		}
	}
	return start
}

// execTime returns c(t)/s(v) from the bound tables.
func (b *Builder) execTime(t, v int) float64 {
	return b.exec[t*b.nv+v]
}

// EFT returns the earliest start and finish of task t on node v under the
// given insertion policy. ok is false if a predecessor of t is unplaced.
func (b *Builder) EFT(t, v int, insertion bool) (start, finish float64, ok bool) {
	ready, ok := b.ReadyTime(t, v)
	if !ok {
		return 0, 0, false
	}
	start, finish = b.EFTFrom(t, v, ready, insertion)
	return start, finish, true
}

// EFTFrom is EFT with t's ready time on v already known, e.g. read from a
// FillReadyRow row.
func (b *Builder) EFTFrom(t, v int, ready float64, insertion bool) (start, finish float64) {
	dur := b.execTime(t, v)
	start = b.EarliestStart(v, ready, dur, insertion)
	return start, start + dur
}

// AppendRow is EFTFrom without insertion for every node at once: it sets
// start[v], finish[v] = EFTFrom(t, v, ready[v], false) for each node v,
// in one pass over t's execution-time row and the nodes' timelines. ready
// is typically t's FillReadyRow row; all three slices must be NumNodes
// long. The arithmetic is EFTFrom's, so the row is bit-identical to the
// per-node calls: the start is the node's available time if that is
// strictly later than ready, else ready, and the finish is start + dur.
// The schedulers that re-score every ready task at every step (MinMin,
// MaxMin, Duplex, ETF, GDL, BIL, ERT, WBA) score a task with one call.
func (b *Builder) AppendRow(t int, ready, start, finish []float64) {
	nv := b.nv
	ready, start, finish = ready[:nv], start[:nv], finish[:nv]
	tls := b.timelines[:nv]
	exec := b.exec[t*nv : (t+1)*nv]
	for v, r := range ready {
		dur := exec[v]
		avail := 0.0 // NodeAvailable(v)
		if tl := tls[v]; len(tl) > 0 {
			avail = tl[len(tl)-1].End
		}
		s := r
		if avail > r {
			s = avail
		}
		start[v], finish[v] = s, s+dur
	}
}

// Place records task t on node v at the given start time. It panics if t
// is already placed; schedulers are expected to pass feasible starts
// (validation happens once at the end via Validate).
func (b *Builder) Place(t, v int, start float64) Assignment {
	if b.placed[t] {
		panic(fmt.Sprintf("schedule: task %d placed twice", t))
	}
	a := Assignment{Task: t, Node: v, Start: start, End: start + b.execTime(t, v)}
	b.byTask[t] = a
	b.placed[t] = true
	b.nPlaced++
	tl := b.timelines[v]
	// A block strictly after the last entry in (Start, End) order goes
	// where the search below would put it, at the end. Every no-insertion
	// placement takes this path unless it repeats the last entry's pair
	// (a zero-duration task at a zero-duration task's instant).
	if n := len(tl); n == 0 || tl[n-1].Start < a.Start || (tl[n-1].Start == a.Start && tl[n-1].End < a.End) {
		b.timelines[v] = append(tl, a)
		return a
	}
	// Binary search for the (Start, End) insertion point (a hand-rolled
	// sort.Search so the hot path carries no closure).
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
	b.timelines[v] = tl
	return a
}

// BestEFTNode returns the node minimizing t's earliest finish time and
// the corresponding start. Ties break toward the lower node index. It
// reads t's ready times from ReadyRow, overwriting that buffer, and
// panics if a predecessor of t is unplaced.
//
// A node whose ready time plus t's duration already reaches the bound
// bestFinish − Eps is skipped without probing its timeline. The skip is
// exact: EarliestStart never returns less than ready, and rounded float
// addition is monotone, so the probe's finish start + dur is at least
// ready + dur and could not have passed the strict test either.
func (b *Builder) BestEFTNode(t int, insertion bool) (node int, start float64) {
	ready, _ := b.ReadyRow(t)
	bestNode, bestStart, bound := -1, 0.0, math.Inf(1)
	for v, r := range ready {
		dur := b.execTime(t, v)
		if r+dur >= bound {
			continue
		}
		s := b.EarliestStart(v, r, dur, insertion)
		if f := s + dur; f < bound {
			bestNode, bestStart, bound = v, s, f-graph.Eps
		}
	}
	return bestNode, bestStart
}

// Unplace reverses Place(t, ·, ·): the assignment leaves its node's
// timeline, which stays ordered by (Start, End), and t becomes placeable
// again. It panics if t is not placed.
// Backtracking searches (package exact) pair every Place with an
// Unplace in LIFO order, which keeps one shared builder per search
// instead of a clone per branch — the clone-per-frame approach holds
// O(depth·|T|) live memory and is infeasible at 10k-task depths.
func (b *Builder) Unplace(t int) {
	if !b.placed[t] {
		panic(fmt.Sprintf("schedule: task %d not placed", t))
	}
	a := b.byTask[t]
	tl := b.timelines[a.Node]
	// LIFO discipline means the assignment is near the end of the
	// timeline; scan backwards.
	for i := len(tl) - 1; i >= 0; i-- {
		if tl[i].Task == t {
			copy(tl[i:], tl[i+1:])
			b.timelines[a.Node] = tl[:len(tl)-1]
			break
		}
	}
	b.placed[t] = false
	b.nPlaced--
}

// Makespan returns the current partial makespan.
func (b *Builder) Makespan() float64 {
	m := 0.0
	for v := range b.timelines {
		if a := b.NodeAvailable(v); a > m {
			m = a
		}
	}
	return m
}

// ScheduleInto finalizes the builder into out, reusing out's assignment
// slice. It returns an error if any task remains unplaced.
func (b *Builder) ScheduleInto(out *Schedule) error {
	for t, p := range b.placed {
		if !p {
			return fmt.Errorf("schedule: task %d never placed", t)
		}
	}
	out.NumNodes = b.nv
	out.ByTask = append(out.ByTask[:0], b.byTask...)
	return nil
}
