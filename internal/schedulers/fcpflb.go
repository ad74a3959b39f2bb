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
// width) per step plus one O(in-degree · |V|) ready row per task.
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

// Schedule implements scheduler.Scheduler.
func (f FCP) Schedule(inst *graph.Instance) (*schedule.Schedule, error) {
	return scheduler.RunScratch(f, inst)
}

// ScheduleScratch implements scheduler.ScratchScheduler.
func (FCP) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	rank := scr.UpwardRank(inst)
	b := scr.Builder(inst)
	rs := scr.ReadySet(inst.Graph)
	for !rs.Empty() {
		// Pop the highest-priority ready task.
		ready := rs.Ready()
		t := ready[0]
		for _, x := range ready[1:] {
			if rank[x] > rank[t]+graph.Eps {
				t = x
			}
		}
		row, enab := b.ReadyRow(t)
		v, start, _ := bestCandidate(b, t, earliestIdle(b), row, enab)
		b.Place(t, v, start)
		rs.Complete(t)
	}
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
// construction (rowCache).
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

// Schedule implements scheduler.Scheduler.
func (f FLB) Schedule(inst *graph.Instance) (*schedule.Schedule, error) {
	return scheduler.RunScratch(f, inst)
}

// ScheduleScratch implements scheduler.ScratchScheduler.
func (FLB) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	b := scr.Builder(inst)
	rs := scr.ReadySet(inst.Graph)
	rows := readyRows(scr, inst)
	for !rs.Empty() {
		idle := earliestIdle(b)
		bestTask, bestNode := -1, -1
		bestStart, bestFinish := 0.0, math.Inf(1)
		for _, t := range rs.Ready() {
			ready, enab := rows.row(b, t)
			v, s, f := bestCandidate(b, t, idle, ready, enab)
			if f < bestFinish-graph.Eps {
				bestTask, bestNode, bestStart, bestFinish = t, v, s, f
			}
		}
		b.Place(bestTask, bestNode, bestStart)
		rs.Complete(bestTask)
	}
	return b.ScheduleInto(out)
}
