package schedulers

import (
	"fmt"

	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// rowCache keeps one ready row (schedule.Builder.FillReadyRow) per task
// for the length of one construction, for the schedulers that examine a
// ready task at every step until they place it (FLB, WBA). A task's row
// depends only on its predecessors' assignments, which are fixed from
// the moment it becomes ready; neither scheduler ever Unplaces, so a row
// filled on first examination stays exact until the construction ends.
//
// The storage is |T|·|V| ready times and enabling nodes, 12 bytes per
// pair, owned by the per-worker Scratch (Ext "readyRows", shared by FLB
// and WBA). It grows once to the largest instance seen and is reused.
type rowCache struct {
	nv    int
	ready []float64
	enab  []int32 // enab[t*nv] == rowUnfilled marks a row not yet filled
}

// rowUnfilled marks an unfilled row; FillReadyRow writes only -1 or a node.
const rowUnfilled = -2

// readyRows returns the scratch's row cache reset for a new construction
// over inst: every row unfilled.
func readyRows(scr *scheduler.Scratch, inst *graph.Instance) *rowCache {
	c := scr.Ext("readyRows", func() any { return &rowCache{} }).(*rowCache)
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
	return c
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
