package schedulers

import (
	"fmt"
	"math"

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
// maximum of the placed ends. A pick that returns t < 0 stops the
// construction early; the builder then holds a partial schedule and the
// makespan is +Inf.
func placeReady(inst *graph.Instance, scr *scheduler.Scratch, pick func(b *schedule.Builder, rows *scheduler.ReadyRows, ready []int) (t, v int, start float64)) (*schedule.Builder, float64) {
	b := scr.Builder(inst)
	rs := scr.ReadySet(inst.Graph)
	rows := scr.ReadyRows(inst)
	makespan := 0.0
	for !rs.Empty() {
		t, v, start := pick(b, rows, rs.Ready())
		if t < 0 {
			return b, math.Inf(1)
		}
		if a := b.Place(t, v, start); a.End > makespan {
			makespan = a.End
		}
		rs.Complete(t)
	}
	return b, makespan
}
