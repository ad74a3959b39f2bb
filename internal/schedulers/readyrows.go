package schedulers

import (
	"fmt"

	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// rowCache keeps one ready row (schedule.Builder.FillReadyRow) per task
// for the length of one construction, for the schedulers that examine a
// ready task at every step until they place it: FLB, WBA, MinMin, MaxMin,
// Duplex, ETF, GDL and BIL. A task's row depends only on its
// predecessors' assignments, which are fixed from the moment it becomes
// ready; none of them ever Unplaces, so a row filled on first
// examination stays exact until the construction ends. It also holds the
// output rows of Builder.AppendRow (out), which all of them but FLB
// score a ready task with.
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

// readyRows returns the scratch's row cache reset for a new construction
// over inst.
func readyRows(scr *scheduler.Scratch, inst *graph.Instance) *rowCache {
	c := scr.Ext("readyRows", func() any { return &rowCache{} }).(*rowCache)
	c.reset(inst)
	return c
}

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
// first row of out(1), and returns it.
func (c *rowCache) eft(b *schedule.Builder, t int) (start, finish []float64) {
	ready, _ := c.row(b, t)
	start, finish = c.out(1)
	b.AppendRow(t, ready, start, finish)
	return start, finish
}
