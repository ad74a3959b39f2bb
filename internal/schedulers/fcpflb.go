package schedulers

import (
	"math"

	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

func init() {
	scheduler.Register("FCP", func() scheduler.Scheduler { return FCP{} })
	scheduler.Register("FLB", func() scheduler.Scheduler { return FLB{} })
}

// earliestIdle returns the node that becomes idle first (the lowest index
// among nodes within Eps of the minimum). It does not depend on the task,
// so FLB computes it once per step rather than once per ready task.
func earliestIdle(b *schedule.Builder) int {
	idle, idleAt := 0, math.Inf(1)
	for v := 0; v < b.Instance().Net.NumNodes(); v++ {
		if a := b.NodeAvailable(v); a < idleAt-graph.Eps {
			idle, idleAt = v, a
		}
	}
	return idle
}

// bestCandidate returns, of the FCP/FLB restricted processor set for
// ready task t, the node that finishes t earliest with t's start and
// finish there. The set is the earliest-idle node idle and the enabling
// processor enab[idle] — the node of the predecessor whose message would
// arrive last at idle, where placing t makes that transfer free; an entry
// task has only idle. ready and enab are t's ready row (FillReadyRow);
// ties keep idle.
func bestCandidate(b *schedule.Builder, t, idle int, ready []float64, enab []int32) (node int, start, finish float64) {
	node = idle
	start, finish = b.EFTFrom(t, idle, ready[idle], false)
	if ep := int(enab[idle]); ep >= 0 && ep != idle {
		if s, f := b.EFTFrom(t, ep, ready[ep], false); f < finish-graph.Eps {
			node, start, finish = ep, s, f
		}
	}
	return node, start, finish
}

// FCP is Fast Critical Path (Radulescu & van Gemund). It keeps the ready
// tasks in a priority queue ordered by static upward rank and, rather
// than scanning every processor, considers only two candidates per task:
// the processor that becomes idle first and the enabling processor (the
// source of the task's last-arriving message). The task is placed on
// whichever candidate finishes it earlier. The paper keeps processors
// and tasks in priority queues for O(|T| log |V| + |D|) schedule
// generation; this implementation scans instead, for O(|V| + ready
// width) per step plus one O(in-degree · |V|) ready row per task. The
// task scan keeps its threshold rank[t]+Eps in a local, recomputed only
// when the pick changes, so a step costs one rank read and one
// comparison per ready task.
//
// The task scan cannot become a priority queue without changing
// schedules. It replaces its pick only when rank[x] > rank[t]+Eps, and
// that tolerance is not a total order: with ranks [1, 1+Eps/2] the scan
// keeps task 0 where a max-heap pops task 1. The pick depends on the
// index-ordered walk, which no heap reproduces.
//
// FCP was designed for heterogeneous task graphs but homogeneous
// processors and links; PISA pins both node speeds and link strengths to
// 1 when analyzing it (Section VI).
type FCP struct{}

// Name implements scheduler.Scheduler.
func (FCP) Name() string { return "FCP" }

// Requirements implements scheduler.Constrained: fully homogeneous
// network.
func (FCP) Requirements() scheduler.Requirements {
	return scheduler.Requirements{HomogeneousNodes: true, HomogeneousLinks: true}
}

// ScheduleScratch implements scheduler.Scheduler.
func (FCP) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	rank := scr.UpwardRank(inst)
	b, _ := placeReady(inst, scr, func(b *schedule.Builder, rows *scheduler.ReadyRows, ready []int) (int, int, float64) {
		// Pop the highest-priority ready task.
		t := ready[0]
		above := rank[t] + graph.Eps
		for _, x := range ready[1:] {
			if rank[x] > above {
				t, above = x, rank[x]+graph.Eps
			}
		}
		at, enab := rows.Row(b, t)
		v, start, _ := bestCandidate(b, t, earliestIdle(b), at, enab)
		return t, v, start
	})
	return b.ScheduleInto(out)
}

// FLB is Fast Load Balancing (Radulescu & van Gemund), FCP's companion
// algorithm from the same paper. It uses the same two-candidate processor
// restriction but selects, at each step, the ready task whose restricted
// earliest finish time is smallest — balancing load instead of following
// the critical path. The paper's bound is likewise O(|T| log |V| + |D|)
// with priority queues; this implementation costs O(|V| + ready width)
// per step plus one O(in-degree · |V|) ready row per task, filled the
// first time the task is examined and kept for the rest of the
// construction (scheduler.ReadyRows). A ready task's restricted
// candidate depends on its fixed ready row, the earliest-idle node, the
// enabling processor there and those two nodes' availabilities, so FLB
// keeps each task's last candidate (flbCandidate) and re-scores it only
// when one of those changed: a step reads one memo entry and at most one
// availability per ready task, and calls bestCandidate only for the
// tasks the last placement moved.
//
// Like FCP it targets homogeneous processors and links, and PISA pins
// both to 1 when analyzing it (Section VI).
type FLB struct{}

// Name implements scheduler.Scheduler.
func (FLB) Name() string { return "FLB" }

// Requirements implements scheduler.Constrained: fully homogeneous
// network.
func (FLB) Requirements() scheduler.Requirements {
	return scheduler.Requirements{HomogeneousNodes: true, HomogeneousLinks: true}
}

// ScheduleScratch implements scheduler.Scheduler.
func (FLB) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	memo := scr.Ext("FLB", func() any { return &flbMemo{} }).(*flbMemo).reset(inst.Graph.NumTasks())
	b, _ := placeReady(inst, scr, func(b *schedule.Builder, rows *scheduler.ReadyRows, ready []int) (int, int, float64) {
		idle := earliestIdle(b)
		idleAt := b.NodeAvailable(idle)
		bestTask, bestNode := -1, -1
		bestStart, bestFinish := 0.0, math.Inf(1)
		for _, t := range ready {
			c := &memo[t]
			if int(c.idle) != idle || c.idleAt != idleAt || (c.enab >= 0 && b.NodeAvailable(int(c.enab)) != c.enabAt) {
				at, enab := rows.Row(b, t)
				v, s, f := bestCandidate(b, t, idle, at, enab)
				*c = flbCandidate{idle: int32(idle), enab: -1, node: int32(v), idleAt: idleAt, start: s, finish: f}
				if ep := int(enab[idle]); ep >= 0 && ep != idle {
					c.enab, c.enabAt = int32(ep), b.NodeAvailable(ep)
				}
			}
			if c.finish < bestFinish-graph.Eps {
				bestTask, bestNode, bestStart, bestFinish = t, int(c.node), c.start, c.finish
			}
		}
		return bestTask, bestNode, bestStart
	})
	return b.ScheduleInto(out)
}

// flbCandidate is FLB's memo of bestCandidate for one ready task t: the
// result (node, start, finish) and the inputs it read that a placement
// can change — the earliest-idle node, t's enabling processor there (-1
// when there is none or it is idle itself) and both nodes'
// availabilities. t's ready row and exec row are fixed once t is ready,
// so while those inputs are equal the result is too.
type flbCandidate struct {
	idle, enab, node              int32
	idleAt, enabAt, start, finish float64
}

// flbMemo holds one flbCandidate per task. It lives in Scratch.Ext, so
// FLB values stay stateless and each worker's scratch has its own.
type flbMemo []flbCandidate

// reset starts a construction over n tasks: every entry misses.
func (m *flbMemo) reset(n int) flbMemo {
	if cap(*m) < n {
		*m = make(flbMemo, n)
	}
	*m = (*m)[:n]
	for i := range *m {
		(*m)[i].idle = -1
	}
	return *m
}
