package schedulers

import (
	"math"
	"math/rand"
	"testing"

	"saga/internal/graph"
	"saga/internal/scheduler"
)

// readyAtEdgeInstances are the inputs the ready-time kernels special-case
// or that the differential corpus holds few of: random DAGs with a third
// of their edges zero-cost, on integer grids where arrivals tie, over
// networks with +Inf links (a free transfer that is not same-node) and
// over one node; and a graph with no edges, every task an entry task.
func readyAtEdgeInstances() []*graph.Instance {
	r := rand.New(rand.NewSource(0xAD7))
	var insts []*graph.Instance
	for i := 0; i < 12; i++ {
		nTasks, nNodes := 20+r.Intn(30), 1+r.Intn(5)
		if i%4 == 0 {
			nNodes = 1
		}
		weight := func() float64 {
			if r.Intn(3) == 0 {
				return 0
			}
			return float64(1 + r.Intn(3))
		}
		g := graph.NewTaskGraph()
		for j := 0; j < nTasks; j++ {
			g.AddTask("t", weight())
		}
		for j := 1; j < nTasks; j++ {
			for k := r.Intn(4); k > 0; k-- {
				if u := r.Intn(j); !g.HasDep(u, j) {
					g.MustAddDep(u, j, weight())
				}
			}
		}
		net := graph.NewNetwork(nNodes)
		for v := 0; v < nNodes; v++ {
			for u := v + 1; u < nNodes; u++ {
				s := float64(1 + r.Intn(2))
				if r.Intn(3) == 0 {
					s = math.Inf(1)
				}
				net.SetLink(v, u, s)
			}
		}
		insts = append(insts, graph.NewInstance(g, net))
	}
	g := graph.NewTaskGraph()
	for j := 0; j < 6; j++ {
		g.AddTask("entry", float64(j%3))
	}
	return append(insts, graph.NewInstance(g, graph.NewNetwork(3)))
}

// TestReadyAtMatchesFillReadyRow holds Builder.ReadyAt, the two-node
// scoring FCP and FLB use, to FillReadyRow's row bit for bit: the ready
// time and the enabling node on every node, for every task at the moment
// it becomes ready. Each construction places a seeded random ready task
// on a random node at its no-insertion start, over differentialCorpus
// and readyAtEdgeInstances.
func TestReadyAtMatchesFillReadyRow(t *testing.T) {
	corpus, _ := differentialCorpus(t)
	corpus = append(corpus, readyAtEdgeInstances()...)
	scr := scheduler.NewScratch()
	for i, inst := range corpus {
		r := rand.New(rand.NewSource(int64(i)))
		nv := inst.Net.NumNodes()
		row, enab := make([]float64, nv), make([]int32, nv)
		checked := make([]bool, inst.Graph.NumTasks())
		b := scr.Builder(inst)
		rs := scr.ReadySet(inst.Graph)
		for !rs.Empty() {
			ready := rs.Ready()
			for _, task := range ready {
				if checked[task] {
					continue
				}
				checked[task] = true
				if !b.FillReadyRow(task, row, enab) {
					t.Fatalf("inst %d task %d: ready but FillReadyRow reports an unplaced predecessor", i, task)
				}
				for v := range row {
					at, ep := b.ReadyAt(task, v)
					if math.Float64bits(at) != math.Float64bits(row[v]) || ep != enab[v] {
						t.Fatalf("inst %d task %d node %d: ReadyAt (%v, %d), FillReadyRow (%v, %d)",
							i, task, v, at, ep, row[v], enab[v])
					}
				}
			}
			task, v := ready[r.Intn(len(ready))], r.Intn(nv)
			start, _, _ := b.EFT(task, v, false)
			b.Place(task, v, start)
			rs.Complete(task)
		}
		for task, ok := range checked {
			if !ok {
				t.Fatalf("inst %d: task %d never became ready", i, task)
			}
		}
	}
}
