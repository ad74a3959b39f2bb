package schedulers

import (
	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

func init() {
	scheduler.Register("HEFT", func() scheduler.Scheduler { return HEFT{} })
}

// HEFT is the Heterogeneous Earliest Finish Time list scheduler of
// Topcuoglu, Hariri & Wu. Tasks are prioritized by upward rank — the
// length, in average execution and communication time, of the longest
// chain from the task to a sink — and greedily placed, in decreasing
// rank order, on the node that minimizes their earliest finish time,
// considering insertion into idle gaps. Scheduling complexity is
// O(|T|^2 |V|).
type HEFT struct{}

// Name implements scheduler.Scheduler.
func (HEFT) Name() string { return "HEFT" }

// ScheduleScratch implements scheduler.Scheduler.
func (HEFT) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	rank := scr.UpwardRank(inst)
	return placeInOrder(inst, scr, scr.TopoOrderByPriority(inst.Graph, rank), bestEFTInsert, out)
}
