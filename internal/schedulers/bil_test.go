package schedulers

import (
	"testing"

	"saga/internal/graph"
	"saga/internal/scheduler"
)

// bilChain builds a two-task chain a→b (costs 2 and 4, data 6) on two
// nodes with speeds 1 and 2 and link strength 3, for which the BIL
// levels are hand-computable.
func bilChain() *graph.Instance {
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 2)
	b := g.AddTask("b", 4)
	g.MustAddDep(a, b, 6)
	net := graph.NewNetwork(2)
	net.Speeds[0], net.Speeds[1] = 1, 2
	net.SetLink(0, 1, 3)
	return graph.NewInstance(g, net)
}

func TestBILLevelsHandComputed(t *testing.T) {
	inst := bilChain()
	var tab graph.Tables
	tab.Build(inst)
	// The flat level matrix is row-major with stride |V| = 2.
	bil := bilLevels(inst, &tab, make([]float64, inst.Graph.NumTasks()*2))
	// Sink b: BIL(b, v) = exec(b, v).
	if !graph.ApproxEq(bil[1*2+0], 4) || !graph.ApproxEq(bil[1*2+1], 2) {
		t.Fatalf("BIL(b) = %v, want [4 2]", bil[2:4])
	}
	// a on node 0: exec 2 + max over succ of
	//   min(BIL(b,0)=4 stay, BIL(b,1)+comm(6/3)=2+2=4 move) = 4 → 6.
	if !graph.ApproxEq(bil[0*2+0], 6) {
		t.Fatalf("BIL(a,0) = %v, want 6", bil[0])
	}
	// a on node 1: exec 1 + min(BIL(b,1)=2 stay, BIL(b,0)+2=6 move) = 2 → 3.
	if !graph.ApproxEq(bil[0*2+1], 3) {
		t.Fatalf("BIL(a,1) = %v, want 3", bil[1])
	}
}

func TestBILOptimalOnLinearGraphs(t *testing.T) {
	// Oh & Ha prove BIL optimal for linear task graphs. Cross-check
	// against the exact solver on random chains.
	for seed := uint64(1); seed <= 12; seed++ {
		inst := randomInstances(t, 1, 0xB11+seed)[0]
		// Strip to a pure chain (the generator starts from chains but
		// the test harness may have densified; rebuild explicitly).
		g := graph.NewTaskGraph()
		prev := -1
		for i := 0; i < inst.Graph.NumTasks(); i++ {
			tk := g.AddTask("t", inst.Graph.Tasks[i].Cost)
			if prev >= 0 {
				g.MustAddDep(prev, tk, float64(seed%3))
			}
			prev = tk
		}
		chain := graph.NewInstance(g, inst.Net)
		bilSched := BIL{}
		got, err := scheduler.Schedule(bilSched, chain)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := scheduler.Schedule(BruteForce{}, chain)
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan() > opt.Makespan()+graph.Eps {
			t.Fatalf("seed %d: BIL %v not optimal on a chain (opt %v)",
				seed, got.Makespan(), opt.Makespan())
		}
	}
}

func TestBILLoadAdjustmentSpreadsReadyTasks(t *testing.T) {
	// Many independent equal tasks, more than nodes: the k/|V| BIM*
	// adjustment must keep BIL from piling everything onto the fastest
	// node. With 6 tasks on 2 equal nodes the makespan must be that of a
	// balanced split (3 tasks per node), not 6 on one node.
	g := graph.NewTaskGraph()
	for i := 0; i < 6; i++ {
		g.AddTask("t", 1)
	}
	inst := graph.NewInstance(g, graph.NewNetwork(2))
	sched, err := scheduler.Schedule(BIL{}, inst)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.ApproxEq(sched.Makespan(), 3) {
		t.Fatalf("BIL makespan = %v, want 3 (balanced)", sched.Makespan())
	}
}
