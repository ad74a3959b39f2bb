package experiments

import (
	"fmt"
	"slices"

	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	"saga/internal/stats"
)

// Jitter returns a copy of the instance whose task costs and dependency
// data sizes are multiplied by independent clipped-gaussian factors
// ~N(1, sigma) clipped to [0.1, 1.9]. Network weights are left alone:
// this models run-time cost uncertainty for a fixed platform, the
// simplest form of the stochastic problem instances the paper's
// conclusion proposes.
func Jitter(inst *graph.Instance, sigma float64, r *rng.RNG) *graph.Instance {
	out := inst.Clone()
	for t := range out.Graph.Tasks {
		out.Graph.Tasks[t].Cost *= r.ClippedGaussian(1, sigma, 0.1, 1.9)
	}
	for _, d := range out.Graph.Deps() {
		c, _ := out.Graph.DepCost(d[0], d[1])
		out.Graph.SetDepCost(d[0], d[1], c*r.ClippedGaussian(1, sigma, 0.1, 1.9))
	}
	return out
}

// Replay evaluates a committed schedule under different costs: it keeps
// the nominal schedule's node assignments and per-node execution order
// and recomputes start times on the jittered instance (every task starts
// as soon as its inputs arrive and its node is free). This is how a
// static (compile-time) schedule actually behaves when run-time costs
// deviate from estimates. It returns the resulting makespan.
func Replay(jittered *graph.Instance, nominal *schedule.Schedule) (float64, error) {
	g := jittered.Graph
	if len(nominal.ByTask) != g.NumTasks() {
		return 0, fmt.Errorf("experiments: schedule covers %d tasks, instance has %d",
			len(nominal.ByTask), g.NumTasks())
	}
	// Per-node execution order from the nominal schedule.
	perNode := make([][]int, jittered.Net.NumNodes())
	type ta struct {
		task  int
		start float64
	}
	tmp := make([][]ta, jittered.Net.NumNodes())
	for t, a := range nominal.ByTask {
		if a.Node < 0 || a.Node >= jittered.Net.NumNodes() {
			return 0, fmt.Errorf("experiments: task %d assigned to invalid node %d", t, a.Node)
		}
		tmp[a.Node] = append(tmp[a.Node], ta{task: t, start: a.Start})
	}
	for v := range tmp {
		slices.SortFunc(tmp[v], func(a, b ta) int {
			switch {
			case a.start < b.start:
				return -1
			case a.start > b.start:
				return 1
			}
			return a.task - b.task
		})
		for _, x := range tmp[v] {
			perNode[v] = append(perNode[v], x.task)
		}
	}

	// Longest-path over the union of precedence edges and node-order
	// edges. Process tasks in an order satisfying both.
	finish := make([]float64, g.NumTasks())
	done := make([]bool, g.NumTasks())
	nodePos := make([]int, jittered.Net.NumNodes())
	nodeFree := make([]float64, jittered.Net.NumNodes())
	remaining := g.NumTasks()
	for remaining > 0 {
		progressed := false
		for v := range perNode {
			for nodePos[v] < len(perNode[v]) {
				t := perNode[v][nodePos[v]]
				ready := nodeFree[v]
				ok := true
				for _, d := range g.Pred[t] {
					u := d.To
					if !done[u] {
						ok = false
						break
					}
					arrive := finish[u] + jittered.CommTime(u, t, nominal.ByTask[u].Node, v)
					if arrive > ready {
						ready = arrive
					}
				}
				if !ok {
					break
				}
				finish[t] = ready + jittered.ExecTime(t, v)
				done[t] = true
				nodeFree[v] = finish[t]
				nodePos[v]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			return 0, fmt.Errorf("experiments: replay deadlock (node order inconsistent with precedence)")
		}
	}
	m := 0.0
	for _, f := range finish {
		if f > m {
			m = f
		}
	}
	return m, nil
}

// RobustnessResult summarizes a scheduler's behaviour under cost jitter.
type RobustnessResult struct {
	Scheduler string
	// Nominal is the makespan on the unjittered instance.
	Nominal float64
	// Static summarizes replayed makespans of the nominal schedule on
	// jittered instances (the schedule is committed, costs move).
	Static stats.Summary
	// Adaptive summarizes makespans when the scheduler re-plans on each
	// jittered instance (a clairvoyant re-scheduling upper baseline).
	Adaptive stats.Summary
}

// Robustness samples n jittered variants of the instance and reports how
// the scheduler's committed schedule degrades (Static) versus full
// re-planning (Adaptive). It is the sequential reference for
// RobustnessRun.
func Robustness(inst *graph.Instance, s scheduler.Scheduler, sigma float64, n int, seed uint64) (*RobustnessResult, error) {
	nominal, err := s.Schedule(inst)
	if err != nil {
		return nil, err
	}
	res := &RobustnessResult{Scheduler: s.Name(), Nominal: nominal.Makespan()}
	r := rng.New(seed)
	var static, adaptive []float64
	for i := 0; i < n; i++ {
		j := Jitter(inst, sigma, r.Split())
		m, err := Replay(j, nominal)
		if err != nil {
			return nil, err
		}
		static = append(static, m)
		re, err := s.Schedule(j)
		if err != nil {
			return nil, err
		}
		adaptive = append(adaptive, re.Makespan())
	}
	res.Static = stats.Summarize(static)
	res.Adaptive = stats.Summarize(adaptive)
	return res, nil
}
