package schedulers

import (
	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

func init() {
	scheduler.Register("ETF", func() scheduler.Scheduler { return ETF{} })
}

// ETF is Earliest Task First (Hwang, Chow, Anger & Lee), one of the few
// algorithms here with a formal bound: makespan at most
// (2 - 1/n)·ω_opt^(i) + C on homogeneous processors, where ω_opt^(i) is
// the communication-free optimum and C a terminal-chain communication
// bound. Each iteration picks, over all (ready task, node) pairs, the
// pair with the earliest possible *start* time — note, start, not finish,
// which is the key difference from HEFT/CPoP the paper highlights — and
// commits it. Ties break toward the higher static upward rank, then the
// lower task index. Scheduling complexity is O(|T| |V|^2).
//
// ETF was designed for homogeneous compute nodes; PISA therefore pins
// node speeds to 1 when analyzing it (Section VI).
type ETF struct{}

// Name implements scheduler.Scheduler.
func (ETF) Name() string { return "ETF" }

// Requirements implements scheduler.Constrained: homogeneous node speeds.
func (ETF) Requirements() scheduler.Requirements {
	return scheduler.Requirements{HomogeneousNodes: true}
}

// ScheduleScratch implements scheduler.Scheduler.
func (ETF) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	rank := scr.UpwardRank(inst)
	b, _ := placeReady(inst, scr, func(b *schedule.Builder, rows *scheduler.ReadyRows, ready []int) (int, int, float64) {
		bestTask, bestNode := -1, -1
		bestStart := 0.0
		for _, t := range ready {
			_, start, _ := rows.EFT(b, t)
			for v, s := range start {
				better := bestTask == -1 || s < bestStart-graph.Eps
				if !better && graph.ApproxEq(s, bestStart) {
					// Tie-break: prefer the more critical task.
					better = rank[t] > rank[bestTask]+graph.Eps
				}
				if better {
					bestTask, bestNode, bestStart = t, v, s
				}
			}
		}
		return bestTask, bestNode, bestStart
	})
	return b.ScheduleInto(out)
}
