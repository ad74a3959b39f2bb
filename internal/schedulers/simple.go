package schedulers

import (
	"math"

	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

func init() {
	scheduler.Register("FastestNode", func() scheduler.Scheduler { return FastestNode{} })
	scheduler.Register("OLB", func() scheduler.Scheduler { return OLB{} })
	scheduler.Register("MCT", func() scheduler.Scheduler { return MCT{} })
	scheduler.Register("MET", func() scheduler.Scheduler { return MET{} })
}

// FastestNode is the serial baseline from the paper: every task executes,
// in topological order, on the single fastest compute node. No
// inter-node communication ever occurs, which is exactly why PISA finds
// instances where over-parallelizing heuristics lose to it (Section
// VI-A). Scheduling complexity is O(|T| + |D| + |V|).
type FastestNode struct{}

// Name implements scheduler.Scheduler.
func (FastestNode) Name() string { return "FastestNode" }

// ScheduleScratch implements scheduler.Scheduler.
func (FastestNode) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	tab := scr.Tables(inst)
	if tab.TopoErr != nil {
		return tab.TopoErr
	}
	v := inst.Net.FastestNode()
	return placeInOrder(inst, scr, tab.Topo, func(b *schedule.Builder, t int) (int, float64) {
		return startOn(b, t, v, false)
	}, out)
}

// OLB is Opportunistic Load Balancing (Armstrong, Hensgen & Kidd): tasks
// are taken in arbitrary (here: topological) order and assigned to the
// node that becomes available earliest, regardless of execution or
// communication time. Scheduling complexity is O(|T| |V|). It is a
// baseline; the paper notes it performs significantly worse than MET,
// MCT and LBA.
type OLB struct{}

// Name implements scheduler.Scheduler.
func (OLB) Name() string { return "OLB" }

// ScheduleScratch implements scheduler.Scheduler.
func (OLB) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	tab := scr.Tables(inst)
	if tab.TopoErr != nil {
		return tab.TopoErr
	}
	return placeInOrder(inst, scr, tab.Topo, func(b *schedule.Builder, t int) (int, float64) {
		return startOn(b, t, earliestIdle(b), false)
	}, out)
}

// MCT is Minimum Completion Time (Armstrong, Hensgen & Kidd): tasks are
// taken in arbitrary (here: topological) order and assigned to the node
// minimizing their completion time given previous decisions — HEFT
// without its priority function or insertion. Scheduling complexity is
// O(|T|^2 |V|).
type MCT struct{}

// Name implements scheduler.Scheduler.
func (MCT) Name() string { return "MCT" }

// ScheduleScratch implements scheduler.Scheduler.
func (MCT) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	tab := scr.Tables(inst)
	if tab.TopoErr != nil {
		return tab.TopoErr
	}
	return placeInOrder(inst, scr, tab.Topo, bestEFT, out)
}

// MET is Minimum Execution Time (Armstrong, Hensgen & Kidd): each task,
// in arbitrary (here: topological) order, is assigned to the node with
// the smallest execution time for it, ignoring node availability and
// communication entirely. Under the related machines model every task
// picks the fastest node. Scheduling complexity is O(|T| |V|).
type MET struct{}

// Name implements scheduler.Scheduler.
func (MET) Name() string { return "MET" }

// ScheduleScratch implements scheduler.Scheduler.
func (MET) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	tab := scr.Tables(inst)
	if tab.TopoErr != nil {
		return tab.TopoErr
	}
	return placeInOrder(inst, scr, tab.Topo, func(b *schedule.Builder, t int) (int, float64) {
		best, bestExec := 0, math.Inf(1)
		for v := 0; v < inst.Net.NumNodes(); v++ {
			if e := inst.ExecTime(t, v); e < bestExec-graph.Eps {
				best, bestExec = v, e
			}
		}
		return startOn(b, t, best, false)
	}, out)
}
