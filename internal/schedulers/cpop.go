package schedulers

import (
	"math"

	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

func init() {
	scheduler.Register("CPoP", func() scheduler.Scheduler { return CPoP{} })
}

// CPoP is the Critical Path on Processor list scheduler of Topcuoglu,
// Hariri & Wu, proposed alongside HEFT. Task priority is
// rank_u(t) + rank_d(t): the length of the longest average-time path
// through the task. Tasks whose priority equals the critical-path length
// form the critical-path set and are all committed to the single node
// that minimizes the total execution time of the set — under the related
// machines model, the fastest node (paper footnote 3). All other tasks
// are placed on their earliest-finish-time node with insertion, in
// decreasing priority order among ready tasks. Scheduling complexity is
// O(|T|^2 |V|).
type CPoP struct{}

// Name implements scheduler.Scheduler.
func (CPoP) Name() string { return "CPoP" }

// ScheduleScratch implements scheduler.Scheduler.
func (CPoP) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	g := inst.Graph
	up := scr.UpwardRank(inst)
	down := scr.DownwardRank(inst)
	prio := scr.Floats(g.NumTasks())
	cpLen := 0.0
	for t := range prio {
		prio[t] = up[t] + down[t]
		if prio[t] > cpLen {
			cpLen = prio[t]
		}
	}

	// The critical path is every task whose through-path length equals
	// the longest path length.
	onCP := scr.Bools(g.NumTasks())
	for t := range prio {
		onCP[t] = graph.ApproxEq(prio[t], cpLen)
	}

	// Pick the node minimizing the summed execution time of critical-path
	// tasks. Under related machines this is the fastest node, but
	// computing the sum keeps the definition faithful.
	cpNode, bestSum := 0, math.Inf(1)
	for v := 0; v < inst.Net.NumNodes(); v++ {
		sum := 0.0
		for t := range onCP {
			if onCP[t] {
				sum += inst.ExecTime(t, v)
			}
		}
		if sum < bestSum-graph.Eps {
			cpNode, bestSum = v, sum
		}
	}

	return placeInOrder(inst, scr, scr.TopoOrderByPriority(g, prio), func(b *schedule.Builder, t int) (int, float64) {
		if onCP[t] {
			return startOn(b, t, cpNode, true)
		}
		return b.BestEFTNode(t, true)
	}, out)
}
