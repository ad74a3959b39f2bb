package experiments

import "saga/internal/stats"

// FamilyResult holds the Fig 7b/8b data the fig7 and fig8 sweeps
// compute: every scheduler's makespan on each sampled instance of a
// task-graph family, plus five-number summaries (the paper shows these
// as box plots).
type FamilyResult struct {
	Schedulers []string
	Makespans  map[string][]float64
	Summaries  map[string]stats.Summary
}
