package schedulers

import (
	"math"

	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

func init() {
	scheduler.Register("MinMin", func() scheduler.Scheduler { return MinMin{} })
	scheduler.Register("MaxMin", func() scheduler.Scheduler { return MaxMin{} })
	scheduler.Register("Duplex", func() scheduler.Scheduler { return Duplex{} })
}

// minMinSchedule runs the MinMin/MaxMin iteration: repeatedly compute
// each ready task's minimum completion time over all nodes, then commit
// the task selected by pickMax (largest MCT for MaxMin, smallest for
// MinMin) to its minimizing node. A task's completion times on every node
// are one AppendRow call on its cached ready row; a later node replaces
// the running best only if it finishes more than Eps earlier.
func minMinSchedule(inst *graph.Instance, scr *scheduler.Scratch, pickMax bool, out *schedule.Schedule) error {
	b, _ := placeReady(inst, scr, func(b *schedule.Builder, rows *scheduler.ReadyRows, ready []int) (int, int, float64) {
		bestTask, bestNode := -1, -1
		bestStart, bestMCT := 0.0, 0.0
		for _, t := range ready {
			_, start, finish := rows.EFT(b, t)
			v, f := -1, math.Inf(1)
			for u, fu := range finish {
				if fu < f-graph.Eps {
					v, f = u, fu
				}
			}
			better := bestTask == -1
			if !better {
				if pickMax {
					better = f > bestMCT+graph.Eps
				} else {
					better = f < bestMCT-graph.Eps
				}
			}
			if better {
				bestTask, bestNode, bestStart, bestMCT = t, v, start[v], f
			}
		}
		return bestTask, bestNode, bestStart
	})
	return b.ScheduleInto(out)
}

// MinMin (Braun et al.) iteratively selects, among ready tasks, the one
// with the smallest minimum completion time and assigns it to the
// corresponding node. Scheduling complexity is O(|T|^2 |V|).
type MinMin struct{}

// Name implements scheduler.Scheduler.
func (MinMin) Name() string { return "MinMin" }

// ScheduleScratch implements scheduler.Scheduler.
func (MinMin) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	return minMinSchedule(inst, scr, false, out)
}

// MaxMin (Braun et al.) iteratively selects, among ready tasks, the one
// with the largest minimum completion time and assigns it to the
// corresponding node. Scheduling complexity is O(|T|^2 |V|).
type MaxMin struct{}

// Name implements scheduler.Scheduler.
func (MaxMin) Name() string { return "MaxMin" }

// ScheduleScratch implements scheduler.Scheduler.
func (MaxMin) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	return minMinSchedule(inst, scr, true, out)
}

// Duplex (Braun et al.) runs both MinMin and MaxMin and returns whichever
// schedule has the smaller makespan.
type Duplex struct{}

// Name implements scheduler.Scheduler.
func (Duplex) Name() string { return "Duplex" }

// ScheduleScratch implements scheduler.Scheduler. MinMin's
// schedule lands in out first; MaxMin replaces it only on a strict
// improvement, matching the reference tie-break toward MinMin.
func (Duplex) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	if err := minMinSchedule(inst, scr, false, out); err != nil {
		return err
	}
	tmp := scr.AcquireSchedule()
	defer scr.ReleaseSchedule(tmp)
	if err := minMinSchedule(inst, scr, true, tmp); err != nil {
		return err
	}
	if tmp.Makespan() < out.Makespan() {
		out.CopyFrom(tmp)
	}
	return nil
}
