package experiments

import (
	"saga/internal/core"
	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/scheduler"
)

// PairwiseResult is the Fig 4 heatmap: Ratios[i][j] is the makespan
// ratio, on the worst-case instance PISA found, of scheduler j (column,
// the analyzed scheduler) against scheduler i (row, the base scheduler).
// The diagonal is -1 (rendered blank). Worst[j] is the maximum of column
// j over all base schedulers — the paper's extra "Worst" row.
type PairwiseResult struct {
	Schedulers []string
	Ratios     [][]float64
	Worst      []float64
	// Instances[i][j] is the adversarial instance behind Ratios[i][j].
	Instances [][]*graph.Instance
}

// PairwiseOptions configures the Fig 4 experiment.
type PairwiseOptions struct {
	// Anneal carries the annealing parameters (restarts, iterations,
	// cooling, seed). Its InitialInstance and Perturb fields are managed
	// per pair by the driver and may be left zero.
	Anneal core.Options
}

// PairwisePISA reproduces Fig 4: for every ordered pair (target A, base
// B) of schedulers, run PISA to find an instance maximizing M_A/M_B.
// Per Section VI, each run restarts from random chain instances, and the
// perturbation space is restricted to the homogeneity requirements of
// the pair: if either scheduler was designed for homogeneous node
// speeds (or links), those weights are pinned to 1. It is the
// sequential reference for PairwisePISARun.
func PairwisePISA(scheds []scheduler.Scheduler, opts PairwiseOptions) (*PairwiseResult, error) {
	n := len(scheds)
	res := &PairwiseResult{
		Ratios:    make([][]float64, n),
		Worst:     make([]float64, n),
		Instances: make([][]*graph.Instance, n),
	}
	for _, s := range scheds {
		res.Schedulers = append(res.Schedulers, s.Name())
	}
	for i := range res.Ratios {
		res.Ratios[i] = make([]float64, n)
		res.Instances[i] = make([]*graph.Instance, n)
		for j := range res.Ratios[i] {
			res.Ratios[i][j] = -1
		}
	}

	pairSeed := opts.Anneal.Seed
	for i, base := range scheds { // row: base scheduler
		for j, target := range scheds { // column: analyzed scheduler
			if i == j {
				continue
			}
			pairSeed++
			ao := opts.Anneal
			ao.Seed = pairSeed
			ao.InitialInstance = datasets.InitialPISAInstance
			ao.Perturb = pairPerturb(target, base)
			r, err := core.Run(target, base, ao)
			if err != nil {
				return nil, err
			}
			res.Ratios[i][j] = r.BestRatio
			res.Instances[i][j] = r.Best
			if r.BestRatio > res.Worst[j] {
				res.Worst[j] = r.BestRatio
			}
		}
	}
	return res, nil
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

// RandomChainInstance exposes the Section VI initial-instance generator
// for callers that need it directly.
func RandomChainInstance(r *rng.RNG) *graph.Instance {
	return datasets.InitialPISAInstance(r)
}
