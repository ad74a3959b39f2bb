package experiments

import (
	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
)

// AppSpecificResult mirrors one block of Figs 10-19, as the appspecific
// sweep computes it: a benchmarking row (max makespan ratio against the
// best scheduler per instance) and a PISA grid (worst-case ratio of each
// column scheduler against each row base scheduler).
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
