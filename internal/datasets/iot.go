package datasets

import (
	"fmt"
	"math"

	"saga/internal/graph"
	"saga/internal/rng"
)

// IoTNames lists the four RIoTBench-based IoT datasets of Table II.
var IoTNames = []string{"etl", "predict", "stats", "train"}

func init() {
	for _, name := range IoTNames {
		register(name, func(r *rng.RNG) *graph.Instance {
			g, err := IoTRecipe(name, r)
			if err != nil {
				panic(err)
			}
			return graph.NewInstance(g, EdgeFogCloudNetwork(r))
		})
	}
}

// EdgeFogCloudNetwork builds the Section IV-B Edge/Fog/Cloud network:
// 75-125 edge nodes with CPU speed 1, 3-7 fog nodes with speed 6, and
// 1-10 cloud nodes with speed 50. Edge↔fog links have strength 60,
// fog↔cloud and fog↔fog links 100, edge↔cloud links 60, and cloud↔cloud
// links are infinite (no communication delay). Edge↔edge links, which
// the paper leaves implicit, use the edge-tier strength 60.
func EdgeFogCloudNetwork(r *rng.RNG) *graph.Network {
	nEdge := r.IntBetween(75, 125)
	nFog := r.IntBetween(3, 7)
	nCloud := r.IntBetween(1, 10)
	total := nEdge + nFog + nCloud
	net := graph.NewNetwork(total)
	tier := make([]int, total) // 0 = edge, 1 = fog, 2 = cloud
	for v := 0; v < total; v++ {
		switch {
		case v < nEdge:
			tier[v], net.Speeds[v] = 0, 1
		case v < nEdge+nFog:
			tier[v], net.Speeds[v] = 1, 6
		default:
			tier[v], net.Speeds[v] = 2, 50
		}
	}
	for u := 0; u < total; u++ {
		for v := u + 1; v < total; v++ {
			var s float64
			switch {
			case tier[u] == 2 && tier[v] == 2:
				s = math.Inf(1)
			case tier[u] == 1 || tier[v] == 1:
				// Any link touching fog: edge-fog 60, fog-fog and
				// fog-cloud 100.
				if tier[u] == 0 || tier[v] == 0 {
					s = 60
				} else {
					s = 100
				}
			default:
				// edge-edge and edge-cloud.
				s = 60
			}
			net.SetLink(u, v, s)
		}
	}
	return net
}

// iotStage describes one operator in a RIoTBench dataflow: its name, and
// the ratio of its output data size to its input data size (the paper
// derives edge weights from the application input size and the known
// input/output ratios of the tasks).
type iotStage struct {
	name     string
	outRatio float64
}

// iotBuild assembles a task graph from a RIoTBench-style stage DAG. Node
// weights are drawn from the paper's clipped gaussian (mean 35, sd 25/3,
// [10, 60]); the application input size from clipped gaussian (mean 1000,
// sd 500/3, [500, 1500]); each edge carries its source stage's output
// size, propagated through the stage out-ratios along a longest path in
// stage order.
func iotBuild(r *rng.RNG, stages []iotStage, edges [][2]int) *graph.TaskGraph {
	g := graph.NewTaskGraph()
	ids := make([]int, len(stages))
	for i, s := range stages {
		ids[i] = g.AddTask(s.name, r.ClippedGaussian(35, 25.0/3, 10, 60))
	}
	input := r.ClippedGaussian(1000, 500.0/3, 500, 1500)
	// Propagate data sizes in index order (stage lists are topologically
	// ordered by construction): a stage's input is the largest of its
	// predecessors' outputs (the application input for sources) and its
	// output is that input scaled by the stage's I/O ratio.
	in := make([]float64, len(stages))
	out := make([]float64, len(stages))
	hasPred := make([]bool, len(stages))
	for _, e := range edges {
		hasPred[e[1]] = true
	}
	for i, s := range stages {
		if !hasPred[i] {
			in[i] = input
		}
		out[i] = in[i] * s.outRatio
		for _, e := range edges {
			if e[0] == i && out[i] > in[e[1]] {
				in[e[1]] = out[i]
			}
		}
	}
	for _, e := range edges {
		g.MustAddDep(ids[e[0]], ids[e[1]], out[e[0]])
	}
	return g
}

// IoTRecipe builds the task graph of one of the four RIoTBench IoT
// applications. The dataflow shapes follow the RIoTBench paper's ETL,
// STATS, PREDICT and TRAIN topologies (DESIGN.md, substitution 4).
func IoTRecipe(name string, r *rng.RNG) (*graph.TaskGraph, error) {
	switch name {
	case "etl":
		// Linear extract-transform-load with a two-way filter branch.
		stages := []iotStage{
			{"source", 1.0}, {"senml_parse", 0.9}, {"range_filter", 0.8},
			{"bloom_filter", 0.8}, {"interpolate", 1.0}, {"join", 1.1},
			{"annotate", 1.2}, {"csv_to_senml", 1.0}, {"mqtt_publish", 0.6},
			{"sink", 0.1},
		}
		edges := [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5},
			{5, 6}, {6, 7}, {7, 8}, {8, 9}}
		return iotBuild(r, stages, edges), nil
	case "stats":
		// Fan-out to three statistical branches joined by a plotter.
		stages := []iotStage{
			{"source", 1.0}, {"senml_parse", 0.9},
			{"average", 0.5}, {"kalman_filter", 0.9}, {"sliding_window", 0.7},
			{"distinct_count", 0.4}, {"group_viz", 1.3}, {"sink", 0.1},
		}
		edges := [][2]int{{0, 1}, {1, 2}, {1, 3}, {3, 4}, {1, 5},
			{2, 6}, {4, 6}, {5, 6}, {6, 7}}
		return iotBuild(r, stages, edges), nil
	case "predict":
		// Parallel model evaluation paths averaged and published.
		stages := []iotStage{
			{"source", 1.0}, {"mqtt_subscribe", 0.9}, {"senml_parse", 0.9},
			{"decision_tree_classify", 0.6}, {"linear_reg_predict", 0.6},
			{"average", 0.5}, {"error_estimate", 0.5}, {"mqtt_publish", 0.6},
			{"sink", 0.1},
		}
		edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {2, 4}, {3, 5}, {4, 5},
			{4, 6}, {5, 7}, {6, 7}, {7, 8}}
		return iotBuild(r, stages, edges), nil
	case "train":
		// Periodic model retraining: fetch, train two models, write both.
		stages := []iotStage{
			{"timer_source", 1.0}, {"table_read", 1.5},
			{"multi_var_linear_reg_train", 0.8}, {"decision_tree_train", 0.8},
			{"model_blob_write_lr", 0.5}, {"model_blob_write_dt", 0.5},
			{"mqtt_publish", 0.4}, {"sink", 0.1},
		}
		edges := [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 5}, {4, 6},
			{5, 6}, {6, 7}}
		return iotBuild(r, stages, edges), nil
	}
	return nil, fmt.Errorf("datasets: unknown IoT application %q", name)
}
