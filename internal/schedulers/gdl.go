package schedulers

import (
	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

func init() {
	scheduler.Register("GDL", func() scheduler.Scheduler { return GDL{} })
}

// GDL is the Generalized Dynamic Level scheduler (Sih & Lee's DLS).
// Task priorities are recomputed each time a task is scheduled: the
// dynamic level of a ready task t on node v is
//
//	DL(t, v) = SL(t) − EST(t, v) + Δ(t, v)
//
// where SL is the communication-free static level, EST the earliest start
// time of t on v given prior decisions, and Δ(t, v) = E*(t) − c(t)/s(v)
// is the speed-advantage adjustment (E* the average execution time over
// nodes). Each iteration commits the (ready task, node) pair with the
// maximum dynamic level. The per-iteration rescan makes the complexity
// O(|V|^3 |T|) in the original formulation — a factor |V| above
// HEFT/CPoP, as the paper notes.
//
// GDL was designed for networks with heterogeneous processors but was
// analyzed by PISA with homogeneous communication links (link strengths
// pinned to 1, Section VI).
type GDL struct{}

// Name implements scheduler.Scheduler.
func (GDL) Name() string { return "GDL" }

// Requirements implements scheduler.Constrained: homogeneous links.
func (GDL) Requirements() scheduler.Requirements {
	return scheduler.Requirements{HomogeneousLinks: true}
}

// ScheduleScratch implements scheduler.Scheduler.
func (GDL) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	tab := scr.Tables(inst)
	sl := scr.StaticLevel(inst)
	nv := inst.Net.NumNodes()
	b, _ := placeReady(inst, scr, func(b *schedule.Builder, rows *scheduler.ReadyRows, ready []int) (int, int, float64) {
		bestTask, bestNode := -1, -1
		bestStart, bestDL := 0.0, 0.0
		for _, t := range ready {
			avg := tab.AvgExec[t]
			exec := tab.Exec[t*nv : (t+1)*nv]
			_, start, _ := rows.EFT(b, t)
			for v, s := range start {
				dl := sl[t] - s + (avg - exec[v])
				if bestTask == -1 || dl > bestDL+graph.Eps {
					bestTask, bestNode, bestStart, bestDL = t, v, s, dl
				}
			}
		}
		return bestTask, bestNode, bestStart
	})
	return b.ScheduleInto(out)
}
