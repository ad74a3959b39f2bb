package experiments

import (
	"saga/internal/core"
	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/scheduler"
)

// PairwiseResult is the Fig 4 heatmap the fig4 and pairwise sweeps
// compute: Ratios[i][j] is the makespan ratio, on the worst-case
// instance PISA found, of scheduler j (column, the analyzed scheduler)
// against scheduler i (row, the base scheduler). The diagonal is -1
// (rendered blank). Worst[j] is the maximum of column j over all base
// schedulers — the paper's extra "Worst" row.
type PairwiseResult struct {
	Schedulers []string
	Ratios     [][]float64
	Worst      []float64
	// Instances[i][j] is the adversarial instance behind Ratios[i][j].
	Instances [][]*graph.Instance
}

// pairPerturb builds the Section VI perturbation configuration for a
// pair of schedulers: the union of their homogeneity requirements.
func pairPerturb(a, b scheduler.Scheduler) core.PerturbOptions {
	p := core.DefaultPerturb()
	ra, rb := scheduler.RequirementsOf(a), scheduler.RequirementsOf(b)
	p.FixSpeeds = ra.HomogeneousNodes || rb.HomogeneousNodes
	p.FixLinks = ra.HomogeneousLinks || rb.HomogeneousLinks
	return p
}

// SinglePISA runs PISA for one (target, base) pair with the Section VI
// setup and returns the result — the entry point behind the Fig 5/6 case
// studies and the CLI's pisa subcommand.
func SinglePISA(target, base scheduler.Scheduler, anneal core.Options) (*core.Result, error) {
	if anneal.InitialInstance == nil {
		anneal.InitialInstance = datasets.InitialPISAInstance
	}
	zero := core.PerturbOptions{}
	if anneal.Perturb == zero {
		anneal.Perturb = pairPerturb(target, base)
	}
	return core.Run(target, base, anneal)
}
