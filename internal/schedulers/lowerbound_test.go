package schedulers

import (
	"fmt"
	"math"
	"testing"

	"saga/internal/exact"
	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// lowerBoundEdgeCases are the instances where exact.LowerBound is
// degenerate or tight: all-zero task and dependency costs (bound 0), a
// one-node network (the work bound is the makespan), infinite links
// (communication is free, so the critical path can be met), and a single
// task, alone and on one node.
func lowerBoundEdgeCases() []*graph.Instance {
	chain := func(costs []float64, dep float64, net *graph.Network) *graph.Instance {
		g := graph.NewTaskGraph()
		for i, c := range costs {
			g.AddTask("t", c)
			if i > 0 {
				g.MustAddDep(i-1, i, dep)
			}
		}
		return graph.NewInstance(g, net)
	}
	fork := func(net *graph.Network) *graph.Instance {
		g := graph.NewTaskGraph()
		src := g.AddTask("src", 0.4)
		for _, c := range []float64{0.9, 0, 0.3} {
			g.MustAddDep(src, g.AddTask("leaf", c), 0.7)
		}
		return graph.NewInstance(g, net)
	}
	hetero := func(n int) *graph.Network {
		net := graph.NewNetwork(n)
		for v := range net.Speeds {
			net.Speeds[v] = 0.25 + float64(v)/4
		}
		return net
	}
	infLinks := func(n int) *graph.Network {
		net := hetero(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				net.SetLink(u, v, math.Inf(1))
			}
		}
		return net
	}
	return []*graph.Instance{
		chain([]float64{0, 0, 0, 0}, 0, hetero(3)),
		chain([]float64{0, 0.5, 0, 0.2}, 0, hetero(3)),
		chain([]float64{0, 0, 0}, 0.8, hetero(4)),
		chain([]float64{0.3, 0.6, 0.1}, 0.5, graph.NewNetwork(1)),
		fork(graph.NewNetwork(1)),
		fork(infLinks(3)),
		chain([]float64{0.5, 0.25, 1}, 2, infLinks(4)),
		chain([]float64{0.7}, 0, hetero(3)),
		chain([]float64{0.7}, 0, graph.NewNetwork(1)),
		chain([]float64{0}, 0, hetero(2)),
	}
}

// assertAboveLowerBound schedules inst with s and requires a schedule,
// not an error, whose makespan is at least exact.LowerBound less the
// slack schedule.Validate allows, 2·|T|·Eps.
func assertAboveLowerBound(t *testing.T, s scheduler.Scheduler, inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule, label string) {
	t.Helper()
	scr.Prepare(inst)
	if err := s.ScheduleScratch(inst, scr, out); err != nil {
		t.Fatalf("%s: %s failed: %v", label, s.Name(), err)
	}
	lb := exact.LowerBound(inst, scr)
	if slack := 2 * float64(inst.Graph.NumTasks()) * graph.Eps; out.Makespan() < lb-slack {
		t.Fatalf("%s: %s makespan %v below the lower bound %v less its slack %v", label, s.Name(), out.Makespan(), lb, slack)
	}
}

// TestMakespanNeverBelowLowerBound: no registered scheduler beats
// exact.LowerBound by more than Validate's slack, on the differential
// corpus, on Fig 4-shaped instances and on the bound's edge cases, and
// none of them fails on an edge case. The PISA annealer settles a
// candidate from the target's makespan over this bound without
// scheduling the baseline, so a scheduler that beat the bound, or one
// that would have failed on a settled candidate, would change a search.
// BruteForce and SMT run only on instances within their 10-task limit.
func TestMakespanNeverBelowLowerBound(t *testing.T) {
	corpus, _ := differentialCorpus(t)
	corpus = append(corpus, fig4StyleInstances(100, 0x1B0)...)
	edges := lowerBoundEdgeCases()
	var out schedule.Schedule
	for _, name := range scheduler.Names() {
		s, err := scheduler.New(name)
		if err != nil {
			t.Fatal(err)
		}
		scr := scheduler.NewScratch()
		exponential := name == "BruteForce" || name == "SMT"
		for i, inst := range corpus {
			if exponential && inst.Graph.NumTasks() > 10 {
				continue
			}
			assertAboveLowerBound(t, s, inst, scr, &out, fmt.Sprintf("corpus instance %d", i))
		}
		for i, inst := range edges {
			assertAboveLowerBound(t, s, inst, scr, &out, fmt.Sprintf("edge case %d", i))
		}
	}
}
