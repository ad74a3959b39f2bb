package schedulers

import (
	"fmt"
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// zeroCostCorpus is 35 instances with about half their task costs set
// to 0, as PISA's weight perturbations produce (the shape of the sim
// package's differential corpus): 20 initial PISA chains and five each
// of chains, in_trees and out_trees.
func zeroCostCorpus(t *testing.T) []*graph.Instance {
	t.Helper()
	r := rng.New(0x2E80)
	var insts []*graph.Instance
	for i := 0; i < 20; i++ {
		insts = append(insts, datasets.InitialPISAInstance(r.Split()))
	}
	for _, name := range []string{"chains", "in_trees", "out_trees"} {
		ds, err := datasets.Dataset(name, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, ds...)
	}
	for _, inst := range insts {
		for tk := range inst.Graph.Tasks {
			if r.Intn(2) == 0 {
				inst.Graph.Tasks[tk].Cost = 0
			}
		}
	}
	return insts
}

// fig4StyleInstances is n instances the shape of Fig 4's adversarial
// ones: 3–5 tasks with random forward dependencies, so several tasks are
// often ready at once, over 3–5 nodes, and one task in three costing 0.
func fig4StyleInstances(n int, seed uint64) []*graph.Instance {
	r := rng.New(seed)
	insts := make([]*graph.Instance, n)
	for i := range insts {
		g := graph.NewTaskGraph()
		nt := r.IntBetween(3, 5)
		for tk := 0; tk < nt; tk++ {
			cost := r.Float64()
			if r.Intn(3) == 0 {
				cost = 0
			}
			g.AddTask(fmt.Sprintf("t%d", tk), cost)
			for u := 0; u < tk; u++ {
				if r.Intn(5) < 2 {
					g.MustAddDep(u, tk, r.Float64())
				}
			}
		}
		net := graph.NewNetwork(r.IntBetween(3, 5))
		for v := range net.Speeds {
			net.Speeds[v] = 0.1 + r.Float64()
			for u := v + 1; u < net.NumNodes(); u++ {
				net.SetLink(v, u, 0.1+r.Float64())
			}
		}
		insts[i] = graph.NewInstance(g, net)
	}
	return insts
}

// nearTieInstance has four unit-cost independent tasks over nodes whose
// speeds differ by parts in 10^12: every option lies within Eps of every
// other, and the rounds' makespans differ by less than Eps. A round
// beats the best earlier one by less than Eps, so a stop test that gave
// way by Eps would keep the wrong round.
func nearTieInstance() *graph.Instance {
	g := graph.NewTaskGraph()
	for tk := 0; tk < 4; tk++ {
		g.AddTask(fmt.Sprintf("t%d", tk), 1)
	}
	net := graph.NewNetwork(3)
	for v := range net.Speeds {
		net.Speeds[v] = 1 + float64(v)*1e-12
	}
	return graph.NewInstance(g, net)
}

// TestWBAScratchAcrossInPlaceMutation reuses one scratch on an instance
// PISA-style mutated in place under the same pointer, with the tables
// rebuilt (Prepare) but the WBA extension state untouched: every call
// must match a fresh scratch and the reference.
func TestWBAScratchAcrossInPlaceMutation(t *testing.T) {
	w := NewWBA(0x57BA, 10)
	scr := scheduler.NewScratch()
	var out schedule.Schedule
	r := rng.New(0x2E82)
	for i, inst := range fig4StyleInstances(10, 0x2E83) {
		for step := 0; step < 6; step++ {
			if step > 0 {
				tk := r.Intn(inst.Graph.NumTasks())
				inst.Graph.Tasks[tk].Cost = r.Float64()
				v := r.Intn(inst.Net.NumNodes())
				inst.Net.Speeds[v] = 0.1 + r.Float64()
				scr.Prepare(inst)
			}
			fresh, err := scheduler.Schedule(w, inst)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.ScheduleScratch(inst, scr, &out); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("WBA mutated step %d", step)
			assertSameAssignments(t, label+" vs fresh scratch", i, fresh.ByTask, &out)
			assertSameAssignments(t, label+" vs reference", i, refWBA(w, inst), &out)
		}
	}
}

// wbaTreeShape walks the decision tree a WBA call left in ws from the
// root, replaying each path's placements, and returns the widest ready
// set of any stored state. It fails the test if a node is reached twice,
// a node is unreachable, or a stored list holds more options than its
// state's ready tasks × nodes.
func wbaTreeShape(t *testing.T, ws *wbaScratch, inst *graph.Instance) (maxReady int) {
	t.Helper()
	g := inst.Graph
	nv := inst.Net.NumNodes()
	placed := make([]bool, g.NumTasks())
	seen := make([]bool, len(ws.nodes))
	var walk func(int32)
	walk = func(id int32) {
		if id < 0 {
			return
		}
		if seen[id] {
			t.Fatalf("node %d reached twice", id)
		}
		seen[id] = true
		ready := 0
		for tk := range g.Tasks {
			if placed[tk] {
				continue
			}
			all := true
			for _, d := range g.Pred[tk] {
				all = all && placed[d.To]
			}
			if all {
				ready++
			}
		}
		if ready > maxReady {
			maxReady = ready
		}
		nd := ws.nodes[id]
		if nd.n < 1 || nd.n > ready*nv {
			t.Fatalf("node %d: %d options among %d ready tasks on %d nodes", id, nd.n, ready, nv)
		}
		picks := []wbaPick{nd.pick}
		if nd.k < 0 {
			picks = ws.picks[nd.list : nd.list+nd.n]
		}
		for _, p := range picks {
			if p.child < 0 {
				continue
			}
			placed[p.t] = true
			walk(p.child)
			placed[p.t] = false
		}
	}
	walk(0)
	for id, ok := range seen {
		if !ok {
			t.Fatalf("node %d unreachable from the root", id)
		}
	}
	return maxReady
}

// TestWBATreeBounded holds WBA's decision tree to its bound after a
// 10-round call: at most rounds·|T| nodes, at most rounds−1 stored lists
// and (rounds−1)·max|ready|·|V| stored picks, and a warm repeat of the
// call allocates nothing.
func TestWBATreeBounded(t *testing.T) {
	const rounds = 10
	w := NewWBA(0x57BA, rounds)
	insts := append(fig4StyleInstances(40, 0x2E84), scaleTierInstance(t, "scale_layered_1k"))
	for i, inst := range insts {
		scr := scheduler.NewScratch()
		var out schedule.Schedule
		if err := w.ScheduleScratch(inst, scr, &out); err != nil {
			t.Fatal(err)
		}
		ws := scr.Ext("WBA", nil).(*wbaScratch)
		nt, nv := inst.Graph.NumTasks(), inst.Net.NumNodes()
		maxReady := wbaTreeShape(t, ws, inst)
		if len(ws.nodes) > rounds*nt {
			t.Errorf("inst %d: %d nodes, bound %d", i, len(ws.nodes), rounds*nt)
		}
		lists := 0
		for _, nd := range ws.nodes {
			if nd.k < 0 {
				lists++
			}
		}
		if lists > rounds-1 {
			t.Errorf("inst %d: %d stored lists, bound %d", i, lists, rounds-1)
		}
		if bound := (rounds - 1) * maxReady * nv; len(ws.picks) > bound {
			t.Errorf("inst %d: %d stored picks, bound %d", i, len(ws.picks), bound)
		}
		allocs := testing.AllocsPerRun(1, func() {
			if err := w.ScheduleScratch(inst, scr, &out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("inst %d: %v allocs on a warm repeat, want 0", i, allocs)
		}
	}
}
