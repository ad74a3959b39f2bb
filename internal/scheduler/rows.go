package scheduler

import (
	"fmt"

	"saga/internal/graph"
	"saga/internal/schedule"
)

// ReadyRows keeps one ready row (schedule.Builder.FillReadyRow) per task
// for the length of one re-scoring construction, for the schedulers that
// score every ready task on every node at every step (MinMin, MaxMin,
// Duplex, ETF, GDL, BIL, ERT, WBA). A task's row depends only on its
// predecessors' assignments, which are fixed from the moment it becomes
// ready; no construction ever Unplaces, so a row filled on first
// examination stays exact until the construction ends. It also holds the
// output rows of Builder.AppendRow (Out).
//
// The storage is |T|·|V| ready times and enabling nodes, 12 bytes per
// pair, plus the output rows, owned by the Scratch (Scratch.ReadyRows).
// It grows to the largest instance and the widest step seen and is
// reused. A construction that never reads a row (FCP and FLB score two
// nodes with Builder.ReadyAt) neither grows nor clears it: the first Row
// of a construction does both.
type ReadyRows struct {
	nv, nt        int
	stale         bool // set by reset: the next Row sizes the rows for nt tasks and marks each unfilled
	ready         []float64
	enab          []int32 // enab[t*nv] == rowUnfilled marks a row not yet filled
	start, finish []float64
}

// rowUnfilled marks an unfilled row; FillReadyRow writes only -1 or a node.
const rowUnfilled = -2

// reset starts a new construction over inst: every row unfilled. The
// rows themselves are sized and marked by the construction's first Row.
func (c *ReadyRows) reset(inst *graph.Instance) {
	c.nv, c.nt, c.stale = inst.Net.NumNodes(), inst.Graph.NumTasks(), true
}

// prepare sizes the rows for the construction reset started and marks
// each unfilled.
func (c *ReadyRows) prepare() {
	nv := c.nv
	c.stale = false
	if n := c.nt * nv; cap(c.ready) < n {
		c.ready = make([]float64, n)
		c.enab = make([]int32, n)
	} else {
		c.ready, c.enab = c.ready[:n], c.enab[:n]
	}
	for i := 0; i < len(c.enab); i += nv {
		c.enab[i] = rowUnfilled
	}
}

// Row returns t's ready row, filling it on first use. t's predecessors
// must all be placed.
func (c *ReadyRows) Row(b *schedule.Builder, t int) (ready []float64, enab []int32) {
	if c.stale {
		c.prepare()
	}
	lo, hi := t*c.nv, (t+1)*c.nv
	ready, enab = c.ready[lo:hi:hi], c.enab[lo:hi:hi]
	if enab[0] == rowUnfilled && !b.FillReadyRow(t, ready, enab) {
		panic(fmt.Sprintf("scheduler: ready task %d has an unplaced predecessor", t))
	}
	return ready, enab
}

// Out returns room for n AppendRow results: start and finish hold n
// rows of NumNodes entries each, row i at [i·nv, (i+1)·nv). They are
// valid until the next Out call and never alias Scratch.Floats.
func (c *ReadyRows) Out(n int) (start, finish []float64) {
	n *= c.nv
	if cap(c.start) < n {
		c.start = make([]float64, n)
		c.finish = make([]float64, n)
	}
	return c.start[:n], c.finish[:n]
}

// EFT scores ready task t on every node with Builder.AppendRow, into the
// first row of Out(1), and returns t's ready row with the scores.
func (c *ReadyRows) EFT(b *schedule.Builder, t int) (ready, start, finish []float64) {
	ready, _ = c.Row(b, t)
	start, finish = c.Out(1)
	b.AppendRow(t, ready, start, finish)
	return ready, start, finish
}
