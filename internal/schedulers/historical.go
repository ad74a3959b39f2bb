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

// lmtScratch is LMT's per-worker extension state: each task's level and
// the placement order.
type lmtScratch struct {
	level, order []int
}

// ScheduleScratch implements scheduler.Scheduler.
func (LMT) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	g := inst.Graph
	tab := scr.Tables(inst)
	if tab.TopoErr != nil {
		return tab.TopoErr
	}
	ls := scr.Ext("LMT", func() any { return &lmtScratch{} }).(*lmtScratch)
	n := g.NumTasks()
	if cap(ls.level) < n {
		ls.level, ls.order = make([]int, n), make([]int, n)
	}
	level, order := ls.level[:n], ls.order[:n]
	for _, t := range tab.Topo {
		level[t] = 0
		for _, d := range g.Pred[t] {
			level[t] = max(level[t], level[d.To]+1)
		}
	}
	for t := range order {
		order[t] = t
	}
	// (level asc, cost desc, index asc) is a total order over the
	// distinct task indices, so the typed unstable sort is deterministic;
	// every predecessor sits on a lower level, so the order is
	// topological.
	slices.SortFunc(order, func(x, y int) int {
		cx, cy := g.Tasks[x].Cost, g.Tasks[y].Cost
		switch {
		case level[x] != level[y]:
			return level[x] - level[y]
		case cx > cy:
			return -1
		case cx < cy:
			return 1
		}
		return x - y
	})
	return placeInOrder(inst, scr, order, bestEFT, out)
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
	b, _ := placeReady(inst, scr, func(b *schedule.Builder, rows *scheduler.ReadyRows, ready []int) (int, int, float64) {
		bestTask, bestNode := -1, -1
		bestReady, bestStart := math.Inf(1), math.Inf(1)
		for _, t := range ready {
			// The ready row is the data-ready time on every node; the
			// AppendRow starts are the actual ones.
			at, start, _ := rows.EFT(b, t)
			for v, r := range at {
				better := bestTask == -1 || r < bestReady-graph.Eps
				if !better && graph.ApproxEq(r, bestReady) {
					better = start[v] < bestStart-graph.Eps
				}
				if better {
					bestTask, bestNode, bestReady, bestStart = t, v, r, start[v]
				}
			}
		}
		return bestTask, bestNode, bestStart
	})
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
	return placeInOrder(inst, scr, scr.TopoOrderByPriority(inst.Graph, sl), bestEFT, out)
}
