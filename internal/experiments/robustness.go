package experiments

import (
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/stats"
)

// jitter returns a copy of the instance whose task costs and dependency
// data sizes are multiplied by independent clipped-gaussian factors
// ~N(1, sigma) clipped to [0.1, 1.9]. Network weights are left alone:
// this models run-time cost uncertainty for a fixed platform, the
// simplest form of the stochastic problem instances the paper's
// conclusion proposes. The copy shares inst.Net, which nothing writes.
func jitter(inst *graph.Instance, sigma float64, r *rng.RNG) *graph.Instance {
	g := inst.Graph.Clone()
	for t := range g.Tasks {
		g.Tasks[t].Cost *= r.ClippedGaussian(1, sigma, 0.1, 1.9)
	}
	for u, succ := range g.Succ {
		for _, d := range succ {
			g.SetDepCost(u, d.To, d.Cost*r.ClippedGaussian(1, sigma, 0.1, 1.9))
		}
	}
	return graph.NewInstance(g, inst.Net)
}

// RobustnessResult summarizes a scheduler's behaviour under cost jitter,
// as the robustness sweep samples it. It is also the /v1/robustness
// answer, so the JSON tags are the wire format.
type RobustnessResult struct {
	Scheduler string `json:"scheduler"`
	// Nominal is the makespan on the unjittered instance.
	Nominal float64 `json:"nominal"`
	// Static summarizes makespans of the nominal schedule replayed on
	// jittered instances by sim.Execute in Elastic mode (the schedule's
	// node assignments and per-node order are committed, costs move).
	Static stats.Summary `json:"static"`
	// Adaptive summarizes makespans when the scheduler re-plans on each
	// jittered instance (a clairvoyant re-scheduling upper baseline).
	Adaptive stats.Summary `json:"adaptive"`
}
