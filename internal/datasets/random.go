package datasets

import (
	"fmt"
	"math"

	"saga/internal/graph"
	"saga/internal/rng"
)

func init() {
	register("in_trees", func(r *rng.RNG) *graph.Instance {
		return graph.NewInstance(randTree(r, true), randomNetwork(r))
	})
	register("out_trees", func(r *rng.RNG) *graph.Instance {
		return graph.NewInstance(randTree(r, false), randomNetwork(r))
	})
	register("chains", func(r *rng.RNG) *graph.Instance {
		return graph.NewInstance(parallelChains(r), randomNetwork(r))
	})
}

// gauss2 draws the Section IV-B random-dataset weight: a clipped gaussian
// with mean 1, standard deviation 1/3, clipped to [0, 2].
func gauss2(r *rng.RNG) float64 { return r.ClippedGaussian(1, 1.0/3, 0, 2) }

// randomNetwork builds the paper's "randomly weighted" network: a
// complete graph with 3-5 nodes whose speeds and link strengths are drawn
// from the clipped gaussian(1, 1/3, [0, 2]) distribution (floored at
// minNetWeight — see the package comment). Self-links are infinite.
func randomNetwork(r *rng.RNG) *graph.Network {
	n := r.IntBetween(3, 5)
	net := graph.NewNetwork(n)
	for v := 0; v < n; v++ {
		net.Speeds[v] = clampNet(gauss2(r))
		for u := v + 1; u < n; u++ {
			net.SetLink(v, u, clampNet(gauss2(r)))
		}
	}
	return net
}

// randTree builds an in-tree (edges point from leaves toward the root)
// or out-tree (root toward leaves) with 2-4 levels and branching factor 2
// or 3, weights from the clipped gaussian(1, 1/3, [0, 2]) distribution —
// the methodology of Section IV-B.
func randTree(r *rng.RNG, inTree bool) *graph.TaskGraph {
	levels := r.IntBetween(2, 4)
	branch := r.IntBetween(2, 3)
	g := graph.NewTaskGraph()
	root := g.AddTask("t0", gauss2(r))
	frontier := []int{root}
	id := 1
	for l := 1; l < levels; l++ {
		var next []int
		for _, parent := range frontier {
			for k := 0; k < branch; k++ {
				t := g.AddTask(fmt.Sprintf("t%d", id), gauss2(r))
				id++
				if inTree {
					// Children feed the parent.
					g.MustAddDep(t, parent, gauss2(r))
				} else {
					g.MustAddDep(parent, t, gauss2(r))
				}
				next = append(next, t)
			}
		}
		frontier = next
	}
	return g
}

// parallelChains builds the Section IV-B parallel-chains task graph: 2-5
// independent chains, each 2-5 tasks long, weights from the clipped
// gaussian(1, 1/3, [0, 2]) distribution.
func parallelChains(r *rng.RNG) *graph.TaskGraph {
	chains := r.IntBetween(2, 5)
	g := graph.NewTaskGraph()
	id := 0
	for c := 0; c < chains; c++ {
		length := r.IntBetween(2, 5)
		prev := -1
		for i := 0; i < length; i++ {
			t := g.AddTask(fmt.Sprintf("t%d", id), gauss2(r))
			id++
			if prev >= 0 {
				g.MustAddDep(prev, t, gauss2(r))
			}
			prev = t
		}
	}
	return g
}

// chameleonNetwork builds the Chameleon-cloud-inspired network used by
// the scientific-workflow datasets: 4-10 machines whose speeds are drawn
// from a clipped gaussian fitted in role to the WfCommons trace data
// (mean 1, sd 1/3, clipped to [0.2, 2]), with *infinite* link strengths —
// Chameleon uses a shared filesystem, so the paper absorbs communication
// into computation and treats links as infinitely strong.
func chameleonNetwork(r *rng.RNG) *graph.Network {
	n := r.IntBetween(4, 10)
	net := graph.NewNetwork(n)
	for v := 0; v < n; v++ {
		net.Speeds[v] = r.ClippedGaussian(1, 1.0/3, 0.2, 2)
		for u := v + 1; u < n; u++ {
			net.SetLink(v, u, math.Inf(1))
		}
	}
	return net
}
