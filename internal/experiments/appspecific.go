package experiments

import (
	"math"

	"saga/internal/core"
	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/scheduler"
)

// AppSpecificOptions configures a Section VII experiment for one
// scientific workflow at one CCR.
type AppSpecificOptions struct {
	// Workflow is one of datasets.WorkflowNames.
	Workflow string
	// CCR is the target average communication-to-computation ratio; the
	// paper runs {0.2, 0.5, 1, 2, 5}.
	CCR float64
	// BenchmarkInstances is the benchmarking dataset size (paper: 100).
	BenchmarkInstances int
	// Anneal carries the annealing parameters; InitialInstance and
	// Perturb are managed by the driver.
	Anneal core.Options
}

// AppSpecificResult mirrors one block of Figs 10-19: a benchmarking row
// (max makespan ratio against the best scheduler per instance) and a
// PISA grid (worst-case ratio of each column scheduler against each row
// base scheduler).
type AppSpecificResult struct {
	Workflow   string
	CCR        float64
	Schedulers []string
	Benchmark  []float64   // per scheduler, max ratio over the dataset
	Ratios     [][]float64 // [base][target], diagonal -1
	Instances  [][]*graph.Instance
}

// CCRLevels are the five CCR settings of Section VII.
var CCRLevels = []float64{0.2, 0.5, 1.0, 2.0, 5.0}

// appInstance builds one Section VII problem instance: the workflow's
// recipe topology over a trace-inspired network whose finite homogeneous
// link strength is set so the instance's average CCR equals the target
// (Section VII-A).
func appInstance(workflow string, ccr float64, r *rng.RNG) *graph.Instance {
	g, err := datasets.WorkflowRecipe(workflow, r)
	if err != nil {
		panic(err)
	}
	n := r.IntBetween(4, 10)
	net := graph.NewNetwork(n)
	for v := 0; v < n; v++ {
		net.Speeds[v] = r.ClippedGaussian(1, 1.0/3, 0.2, 2)
	}
	inst := graph.NewInstance(g, net)
	datasets.SetHomogeneousCCR(inst, ccr)
	return inst
}

// AppSpecific reproduces one Section VII block: benchmark the schedulers
// on BenchmarkInstances in-family instances, then run the
// structure-preserving PISA variant for every scheduler pair. The
// perturbation space scales weights to the ranges observed in the
// benchmarking dataset (standing in for the paper's execution-trace
// ranges) and removes the structural and link perturbations, so every
// explored instance keeps the application's topology and CCR. It is the
// sequential reference for AppSpecificRun.
func AppSpecific(scheds []scheduler.Scheduler, opts AppSpecificOptions) (*AppSpecificResult, error) {
	n := len(scheds)
	res := &AppSpecificResult{
		Workflow:  opts.Workflow,
		CCR:       opts.CCR,
		Benchmark: make([]float64, n),
		Ratios:    make([][]float64, n),
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

	// Benchmarking row + observed weight ranges for the perturb space.
	taskRange := [2]float64{math.Inf(1), math.Inf(-1)}
	depRange := [2]float64{math.Inf(1), math.Inf(-1)}
	speedRange := [2]float64{math.Inf(1), math.Inf(-1)}
	r := rng.New(opts.Anneal.Seed ^ 0xA99)
	nBench := opts.BenchmarkInstances
	if nBench <= 0 {
		nBench = 20
	}
	for i := 0; i < nBench; i++ {
		inst := appInstance(opts.Workflow, opts.CCR, r.Split())
		for _, t := range inst.Graph.Tasks {
			taskRange[0] = math.Min(taskRange[0], t.Cost)
			taskRange[1] = math.Max(taskRange[1], t.Cost)
		}
		for _, succ := range inst.Graph.Succ {
			for _, d := range succ {
				depRange[0] = math.Min(depRange[0], d.Cost)
				depRange[1] = math.Max(depRange[1], d.Cost)
			}
		}
		for _, s := range inst.Net.Speeds {
			speedRange[0] = math.Min(speedRange[0], s)
			speedRange[1] = math.Max(speedRange[1], s)
		}
		ratios, err := MakespanRatioAgainstBest(inst, scheds)
		if err != nil {
			return nil, err
		}
		for j, s := range scheds {
			if v := ratios[s.Name()]; v > res.Benchmark[j] {
				res.Benchmark[j] = v
			}
		}
	}

	// PISA grid with the application-specific PERTURB implementation.
	pairSeed := opts.Anneal.Seed
	for i, base := range scheds {
		for j, target := range scheds {
			if i == j {
				continue
			}
			pairSeed++
			ao := opts.Anneal
			ao.Seed = pairSeed
			ao.InitialInstance = func(rr *rng.RNG) *graph.Instance {
				return appInstance(opts.Workflow, opts.CCR, rr)
			}
			ao.Perturb = core.PerturbOptions{
				Step:              0.1,
				TaskCost:          taskRange,
				DepCost:           depRange,
				Speed:             speedRange,
				FixLinks:          true,
				FixStructure:      true,
				KeepPinnedWeights: true,
			}
			pr, err := core.Run(target, base, ao)
			if err != nil {
				return nil, err
			}
			res.Ratios[i][j] = pr.BestRatio
			res.Instances[i][j] = pr.Best
		}
	}
	return res, nil
}
