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

// candidate is the FCP/FLB restricted processor choice for one ready
// task t: of the earliest-idle node idle and the enabling processor enab
// — the node of the predecessor whose message would arrive last at idle,
// where placing t makes that transfer free — the node that finishes t
// earliest, with t's start and finish there. enab is -1 when the set is
// idle alone (an entry task, or idle is itself the enabling processor);
// ties keep idle. It also records what a placement can change: both
// nodes' availabilities, idleAt and enabAt.
//
// enabReady is t's ready time on enab. t's ready times are fixed once t
// is ready, so FLB, which keeps one candidate per task across steps,
// reads it again whenever a re-score finds the same enabling processor
// at a new idle node (most re-scores do).
type candidate struct {
	idle, enab, node                         int32
	idleAt, enabAt, enabReady, start, finish float64
}

// noCandidate is a candidate that has never been scored.
var noCandidate = candidate{idle: -1, enab: -1}

// score sets c to ready task t's restricted choice with idle the
// earliest-idle node. t's ready times come from Builder.ReadyAt: one
// walk over t's predecessors for idle, and one for enab unless c already
// holds t's ready time there. It reads no ready row.
func (c *candidate) score(b *schedule.Builder, t, idle int) {
	ready, enab := b.ReadyAt(t, idle)
	c.idle, c.node, c.idleAt = int32(idle), int32(idle), b.NodeAvailable(idle)
	c.start, c.finish = b.EFTFrom(t, idle, ready, false)
	if enab < 0 || int(enab) == idle {
		c.enab = -1
		return
	}
	if enab != c.enab {
		c.enab = enab
		c.enabReady, _ = b.ReadyAt(t, int(enab))
	}
	c.enabAt = b.NodeAvailable(int(enab))
	if s, f := b.EFTFrom(t, int(enab), c.enabReady, false); f < c.finish-graph.Eps {
		c.node, c.start, c.finish = enab, s, f
	}
}

// stale reports whether c may differ from a fresh score with idle the
// earliest-idle node: the idle node or either node's availability moved.
func (c *candidate) stale(b *schedule.Builder, idle int, idleAt float64) bool {
	return int(c.idle) != idle || c.idleAt != idleAt || (c.enab >= 0 && b.NodeAvailable(int(c.enab)) != c.enabAt)
}

// FCP is Fast Critical Path (Radulescu & van Gemund). It keeps the ready
// tasks in a priority queue ordered by static upward rank and, rather
// than scanning every processor, considers only two candidates per task:
// the processor that becomes idle first and the enabling processor (the
// source of the task's last-arriving message). The task is placed on
// whichever candidate finishes it earlier. The paper keeps processors
// and tasks in priority queues for O(|T| log |V| + |D|) schedule
// generation; this implementation scans instead, for O(|V| + ready
// width + in-degree) per step: the two candidates' ready times are two
// walks over the task's predecessors (candidate.score). The
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
	b, _ := placeReady(inst, scr, func(b *schedule.Builder, _ *scheduler.ReadyRows, ready []int) (int, int, float64) {
		// Pop the highest-priority ready task.
		t := ready[0]
		above := rank[t] + graph.Eps
		for _, x := range ready[1:] {
			if rank[x] > above {
				t, above = x, rank[x]+graph.Eps
			}
		}
		c := noCandidate
		c.score(b, t, earliestIdle(b))
		return t, int(c.node), c.start
	})
	return b.ScheduleInto(out)
}

// FLB is Fast Load Balancing (Radulescu & van Gemund), FCP's companion
// algorithm from the same paper. It uses the same two-candidate processor
// restriction but selects, at each step, the ready task whose restricted
// earliest finish time is smallest — balancing load instead of following
// the critical path. The paper's bound is likewise O(|T| log |V| + |D|)
// with priority queues. A ready task's restricted candidate depends on
// its predecessors' fixed assignments, the earliest-idle node, the
// enabling processor there and those two nodes' availabilities, so FLB
// keeps each task's last candidate and re-scores it only when one of
// those changed: a step costs O(|V| + ready width), one memo entry and at
// most one availability per ready task, plus an O(in-degree)
// candidate.score for each task the last placement moved.
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
	b, _ := placeReady(inst, scr, func(b *schedule.Builder, _ *scheduler.ReadyRows, ready []int) (int, int, float64) {
		idle := earliestIdle(b)
		idleAt := b.NodeAvailable(idle)
		bestTask, bestNode := -1, -1
		bestStart, bestFinish := 0.0, math.Inf(1)
		for _, t := range ready {
			c := &memo[t]
			if c.stale(b, idle, idleAt) {
				c.score(b, t, idle)
			}
			if c.finish < bestFinish-graph.Eps {
				bestTask, bestNode, bestStart, bestFinish = t, int(c.node), c.start, c.finish
			}
		}
		return bestTask, bestNode, bestStart
	})
	return b.ScheduleInto(out)
}

// flbMemo holds FLB's last candidate per task. It lives in Scratch.Ext,
// so FLB values stay stateless and each worker's scratch has its own.
type flbMemo []candidate

// reset starts a construction over n tasks: every entry misses.
func (m *flbMemo) reset(n int) flbMemo {
	if cap(*m) < n {
		*m = make(flbMemo, n)
	}
	*m = (*m)[:n]
	for i := range *m {
		(*m)[i] = noCandidate
	}
	return *m
}
