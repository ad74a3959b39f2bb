package schedulers

import (
	"math"

	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

func init() {
	scheduler.Register("BIL", func() scheduler.Scheduler { return BIL{} })
}

// BIL is the Best Imaginary Level scheduler of Oh & Ha, designed for the
// unrelated machines model (strictly more general than the related
// machines model studied here) and proven optimal on linear graphs.
//
// The best imaginary level of task t on node v is computed bottom-up:
//
//	BIL(t, v) = exec(t, v) + max over successors s of
//	            min( BIL(s, v),
//	                 min over v'≠v ( BIL(s, v') + comm(t, s, v, v') ) )
//
// i.e. the optimistic remaining makespan if t runs on v and each
// successor chain either stays on v (no communication) or moves once.
//
// At each step the ready task with the highest criticality — here the
// maximum over nodes of its best imaginary makespan
// BIM(t, v) = EST(t, v) + BIL(t, v) — is selected, and placed on the node
// minimizing the revised measure
//
//	BIM*(t, v) = BIM(t, v) + exec(t, v) · max(k/|V| − 1, 0)
//
// where k is the number of currently ready tasks; the adjustment penalizes
// hoarding fast nodes when more tasks are ready than nodes exist, per the
// original paper. Scheduling complexity is O(|T|^2 |V| log |V|).
//
// BIL was analyzed by PISA with homogeneous communication links (link
// strengths pinned to 1, Section VI).
type BIL struct{}

// Name implements scheduler.Scheduler.
func (BIL) Name() string { return "BIL" }

// Requirements implements scheduler.Constrained: homogeneous links.
func (BIL) Requirements() scheduler.Requirements {
	return scheduler.Requirements{HomogeneousLinks: true}
}

// bilLevels computes BIL(t, v) for every task and node, bottom-up in
// reverse topological order, into the flat row-major dst (stride nNodes)
// so a warm scratch buffer serves every call. The communication term
// divides the edge cost by the raw link strength exactly as
// Instance.CommTime does.
func bilLevels(inst *graph.Instance, tab *graph.Tables, dst []float64) []float64 {
	g := inst.Graph
	nNodes := inst.Net.NumNodes()
	bil := dst
	if tab.TopoErr != nil {
		panic("schedulers: BIL on cyclic graph: " + tab.TopoErr.Error())
	}
	order := tab.Topo
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		for v := 0; v < nNodes; v++ {
			level := 0.0
			for _, d := range g.Succ[t] {
				s := d.To
				best := bil[s*nNodes+v] // stay on v: no communication
				cost := d.Cost
				for v2 := 0; v2 < nNodes; v2++ {
					if v2 == v {
						continue
					}
					comm := 0.0
					if cost != 0 {
						comm = cost / tab.Link(v, v2)
					}
					cand := bil[s*nNodes+v2] + comm
					if cand < best {
						best = cand
					}
				}
				if best > level {
					level = best
				}
			}
			bil[t*nNodes+v] = inst.ExecTime(t, v) + level
		}
	}
	return bil
}

// ScheduleScratch implements scheduler.Scheduler. Each ready task's
// starts on every node are one AppendRow call on its cached ready row;
// the selected task's row is kept (two output rows, swapped) for the
// placement scan.
func (BIL) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	nNodes := inst.Net.NumNodes()
	tab := scr.Tables(inst)
	bil := bilLevels(inst, tab, scr.Floats(inst.Graph.NumTasks()*nNodes))
	b, _ := placeReady(inst, scr, func(b *schedule.Builder, rows *scheduler.ReadyRows, ready []int) (int, int, float64) {
		start, finish := rows.Out(2)
		cur, best := start[:nNodes], start[nNodes:]
		k := float64(len(ready))

		// Select the ready task with the highest criticality: the largest
		// best imaginary makespan over nodes.
		bestTask, bestCrit := -1, math.Inf(-1)
		for _, t := range ready {
			at, _ := rows.Row(b, t)
			b.AppendRow(t, at, cur, finish)
			crit := math.Inf(-1)
			level := bil[t*nNodes : (t+1)*nNodes]
			for v, s := range cur {
				if bim := s + level[v]; bim > crit {
					crit = bim
				}
			}
			if crit > bestCrit+graph.Eps {
				bestTask, bestCrit = t, crit
				cur, best = best, cur
			}
		}

		// Place it on the node minimizing the revised imaginary makespan.
		adjust := math.Max(k/float64(nNodes)-1, 0)
		level := bil[bestTask*nNodes : (bestTask+1)*nNodes]
		exec := tab.Exec[bestTask*nNodes : (bestTask+1)*nNodes]
		bestNode, bestStart, bestBIM := -1, 0.0, math.Inf(1)
		for v, s := range best {
			bim := s + level[v] + exec[v]*adjust
			if bim < bestBIM-graph.Eps {
				bestNode, bestStart, bestBIM = v, s, bim
			}
		}
		return bestTask, bestNode, bestStart
	})
	return b.ScheduleInto(out)
}
