package schedulers

import (
	"fmt"

	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// placeInOrder places the tasks of order, which must be topological, one
// at a time on the node and at the start node(b, t) returns, and writes
// the finished schedule into out.
func placeInOrder(inst *graph.Instance, scr *scheduler.Scratch, order []int, node func(b *schedule.Builder, t int) (v int, start float64), out *schedule.Schedule) error {
	b := scr.Builder(inst)
	for _, t := range order {
		v, start := node(b, t)
		b.Place(t, v, start)
	}
	return b.ScheduleInto(out)
}

// bestEFT is the node policy of MCT, MH and LMT: the node that finishes t
// earliest, appending after the node's last task.
func bestEFT(b *schedule.Builder, t int) (int, float64) { return b.BestEFTNode(t, false) }

// bestEFTInsert is HEFT's node policy: bestEFT with insertion into idle
// gaps.
func bestEFTInsert(b *schedule.Builder, t int) (int, float64) { return b.BestEFTNode(t, true) }

// startOn returns v and t's earliest start on v (Builder.EFT). t's
// predecessors must all be placed.
func startOn(b *schedule.Builder, t, v int, insertion bool) (int, float64) {
	start, _, ok := b.EFT(t, v, insertion)
	if !ok {
		panic(fmt.Sprintf("schedulers: task %d placed before a predecessor", t))
	}
	return v, start
}

// placeReady runs one re-scoring construction over inst. At every step
// pick(b, rows, ready) returns the next task among the ready ones (the
// ready set's frontier, sorted by task index), its node and its start;
// the driver places it and advances the ready set. It returns the
// builder, holding the finished schedule, and its makespan: the running
// maximum of the placed ends.
func placeReady(inst *graph.Instance, scr *scheduler.Scratch, pick func(b *schedule.Builder, rows *rowCache, ready []int) (t, v int, start float64)) (*schedule.Builder, float64) {
	b := scr.Builder(inst)
	rs := scr.ReadySet(inst.Graph)
	rows := scr.Ext("readyRows", func() any { return &rowCache{} }).(*rowCache)
	rows.reset(inst)
	makespan := 0.0
	for !rs.Empty() {
		t, v, start := pick(b, rows, rs.Ready())
		if a := b.Place(t, v, start); a.End > makespan {
			makespan = a.End
		}
		rs.Complete(t)
	}
	return b, makespan
}

// rowCache keeps one ready row (schedule.Builder.FillReadyRow) per task
// for the length of one placeReady construction, for every re-scoring
// scheduler. A task's row depends only on its predecessors' assignments,
// which are fixed from the moment it becomes ready; no construction ever
// Unplaces, so a row filled on first examination stays exact until the
// construction ends. It also holds the output rows of Builder.AppendRow
// (out), which every re-scoring scheduler but FCP and FLB scores a ready
// task with.
//
// The storage is |T|·|V| ready times and enabling nodes, 12 bytes per
// pair, plus the output rows, owned by the per-worker Scratch (Ext
// "readyRows"). It grows to the largest instance and the widest step
// seen and is reused.
type rowCache struct {
	nv            int
	ready         []float64
	enab          []int32 // enab[t*nv] == rowUnfilled marks a row not yet filled
	start, finish []float64
}

// rowUnfilled marks an unfilled row; FillReadyRow writes only -1 or a node.
const rowUnfilled = -2

// reset starts a new construction over inst: every row unfilled.
func (c *rowCache) reset(inst *graph.Instance) {
	nt, nv := inst.Graph.NumTasks(), inst.Net.NumNodes()
	if n := nt * nv; cap(c.ready) < n {
		c.ready = make([]float64, n)
		c.enab = make([]int32, n)
	} else {
		c.ready, c.enab = c.ready[:n], c.enab[:n]
	}
	c.nv = nv
	for i := 0; i < len(c.enab); i += nv {
		c.enab[i] = rowUnfilled
	}
}

// row returns t's ready row, filling it on first use. t's predecessors
// must all be placed.
func (c *rowCache) row(b *schedule.Builder, t int) (ready []float64, enab []int32) {
	lo, hi := t*c.nv, (t+1)*c.nv
	ready, enab = c.ready[lo:hi:hi], c.enab[lo:hi:hi]
	if enab[0] == rowUnfilled && !b.FillReadyRow(t, ready, enab) {
		panic(fmt.Sprintf("schedulers: ready task %d has an unplaced predecessor", t))
	}
	return ready, enab
}

// out returns room for n AppendRow results: start and finish hold n
// rows of NumNodes entries each, row i at [i·nv, (i+1)·nv). They are
// valid until the next out call and never alias Scratch.Floats.
func (c *rowCache) out(n int) (start, finish []float64) {
	n *= c.nv
	if cap(c.start) < n {
		c.start = make([]float64, n)
		c.finish = make([]float64, n)
	}
	return c.start[:n], c.finish[:n]
}

// eft scores ready task t on every node with Builder.AppendRow, into the
// first row of out(1), and returns t's ready row with the scores.
func (c *rowCache) eft(b *schedule.Builder, t int) (ready, start, finish []float64) {
	ready, _ = c.row(b, t)
	start, finish = c.out(1)
	b.AppendRow(t, ready, start, finish)
	return ready, start, finish
}
