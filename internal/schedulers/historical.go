package schedulers

import (
	"math"
	"slices"

	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

func init() {
	scheduler.Register("LMT", func() scheduler.Scheduler { return LMT{} })
	scheduler.Register("ERT", func() scheduler.Scheduler { return ERT{} })
	scheduler.Register("MH", func() scheduler.Scheduler { return MH{} })
}

// The three schedulers in this file are the historical baselines the
// HEFT/CPoP and FCP/FLB papers compared against, referenced in the PISA
// paper's related-work discussion (Section IV-A): Levelized Min Time,
// ERT (Lee, Hwang, Chow & Anger), and the Mapping Heuristic of El-Rewini
// & Lewis ("similar to HEFT without insertion"). They are extensions
// beyond Table I — registered and fully tested, but excluded from the
// paper-reproducing experiment rosters.

// LMT is Levelized Min Time: the task graph is partitioned into
// precedence levels (longest path from an entry task, in hops); levels
// are scheduled in order, and within a level — whose tasks are mutually
// independent — tasks are taken largest-average-execution-first and each
// is placed on the node minimizing its completion time. The original
// publication is lost to time (the PISA paper notes the same), so this
// follows the description in the HEFT paper's evaluation section.
type LMT struct{}

// Name implements scheduler.Scheduler.
func (LMT) Name() string { return "LMT" }

// lmtScratch is LMT's per-worker extension state: the level index and
// level buckets.
type lmtScratch struct {
	level   []int
	byLevel [][]int
}

// ScheduleScratch implements scheduler.Scheduler.
func (LMT) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	g := inst.Graph
	tab := scr.Tables(inst)
	if tab.TopoErr != nil {
		return tab.TopoErr
	}
	ls := scr.Ext("LMT", func() any { return &lmtScratch{} }).(*lmtScratch)
	if cap(ls.level) < g.NumTasks() {
		ls.level = make([]int, g.NumTasks())
	}
	ls.level = ls.level[:g.NumTasks()]
	for t := range ls.level {
		ls.level[t] = 0
	}
	maxLevel := 0
	for _, t := range tab.Topo {
		for _, d := range g.Pred[t] {
			if ls.level[d.To]+1 > ls.level[t] {
				ls.level[t] = ls.level[d.To] + 1
			}
		}
		if ls.level[t] > maxLevel {
			maxLevel = ls.level[t]
		}
	}
	if cap(ls.byLevel) < maxLevel+1 {
		grown := make([][]int, maxLevel+1)
		copy(grown, ls.byLevel[:cap(ls.byLevel)])
		ls.byLevel = grown
	} else {
		ls.byLevel = ls.byLevel[:maxLevel+1]
	}
	for l := range ls.byLevel {
		ls.byLevel[l] = ls.byLevel[l][:0]
	}
	for t := 0; t < g.NumTasks(); t++ {
		ls.byLevel[ls.level[t]] = append(ls.byLevel[ls.level[t]], t)
	}

	b := scr.Builder(inst)
	for _, tasks := range ls.byLevel {
		// (cost desc, index asc) is a total order over the distinct task
		// indices, so the typed unstable sort is deterministic.
		slices.SortFunc(tasks, func(x, y int) int {
			cx, cy := g.Tasks[x].Cost, g.Tasks[y].Cost
			switch {
			case cx > cy:
				return -1
			case cx < cy:
				return 1
			}
			return x - y
		})
		for _, t := range tasks {
			v, start := b.BestEFTNode(t, false)
			b.Place(t, v, start)
		}
	}
	return b.ScheduleInto(out)
}

// ERT is the Earliest Ready Task heuristic of Lee, Hwang, Chow & Anger
// (the FCP/FLB papers' comparison baseline): at each step, over all
// (ready task, node) pairs, commit the pair whose *data-ready time* —
// the moment the task's last input can arrive at the node, ignoring the
// node's queue — is earliest, breaking ties toward the earlier actual
// start and then the lower task index. Like ETF it is start-oriented
// rather than finish-oriented, but it ignores node availability when
// ranking options.
type ERT struct{}

// Name implements scheduler.Scheduler.
func (ERT) Name() string { return "ERT" }

// ScheduleScratch implements scheduler.Scheduler.
func (ERT) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	b := scr.Builder(inst)
	rs := scr.ReadySet(inst.Graph)
	for !rs.Empty() {
		bestTask, bestNode := -1, -1
		bestReady, bestStart := math.Inf(1), math.Inf(1)
		for _, t := range rs.Ready() {
			for v := 0; v < inst.Net.NumNodes(); v++ {
				ready, ok := b.ReadyTime(t, v)
				if !ok {
					panic("schedulers: ERT ready task with unplaced predecessor")
				}
				start := b.EarliestStart(v, ready, inst.ExecTime(t, v), false)
				better := bestTask == -1 || ready < bestReady-graph.Eps
				if !better && graph.ApproxEq(ready, bestReady) {
					better = start < bestStart-graph.Eps
				}
				if better {
					bestTask, bestNode, bestReady, bestStart = t, v, ready, start
				}
			}
		}
		b.Place(bestTask, bestNode, bestStart)
		rs.Complete(bestTask)
	}
	return b.ScheduleInto(out)
}

// MH is the Mapping Heuristic of El-Rewini & Lewis, which the HEFT paper
// describes as "similar to HEFT without insertion": tasks are ordered by
// static level (communication-free upward rank) and each is assigned to
// the node minimizing its completion time, appending after the node's
// last task rather than searching idle gaps.
type MH struct{}

// Name implements scheduler.Scheduler.
func (MH) Name() string { return "MH" }

// ScheduleScratch implements scheduler.Scheduler.
func (MH) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	sl := scr.StaticLevel(inst)
	b := scr.Builder(inst)
	for _, t := range scr.TopoOrderByPriority(inst.Graph, sl) {
		v, start := b.BestEFTNode(t, false)
		b.Place(t, v, start)
	}
	return b.ScheduleInto(out)
}
