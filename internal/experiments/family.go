package experiments

import (
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/scheduler"
	"saga/internal/stats"
)

// FamilyResult holds the Fig 7b/8b data: every scheduler's makespan on
// each sampled instance of a task-graph family, plus five-number
// summaries (the paper shows these as box plots).
type FamilyResult struct {
	Schedulers []string
	Makespans  map[string][]float64
	Summaries  map[string]stats.Summary
}

// Family reproduces the Section VI-B family studies (Figs 7 and 8):
// sample n instances from the generator and record each scheduler's
// makespan on every instance. It is the sequential reference for
// FamilyRun.
func Family(gen func(*rng.RNG) *graph.Instance, scheds []scheduler.Scheduler, n int, seed uint64) (*FamilyResult, error) {
	res := &FamilyResult{
		Makespans: map[string][]float64{},
		Summaries: map[string]stats.Summary{},
	}
	for _, s := range scheds {
		res.Schedulers = append(res.Schedulers, s.Name())
	}
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		inst := gen(r.Split())
		for _, s := range scheds {
			sch, err := s.Schedule(inst)
			if err != nil {
				return nil, err
			}
			res.Makespans[s.Name()] = append(res.Makespans[s.Name()], sch.Makespan())
		}
	}
	for _, s := range scheds {
		res.Summaries[s.Name()] = stats.Summarize(res.Makespans[s.Name()])
	}
	return res, nil
}
