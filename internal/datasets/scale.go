package datasets

import (
	"fmt"

	"saga/internal/graph"
	"saga/internal/rng"
)

// The scale tier: dataset families sized for the 1k–10k-task regime the
// edge-sparse Tables layout exists for. Table II's instances top out
// near a hundred tasks; these generators keep the same weight
// methodology (clipped gaussian(1, 1/3, [0, 2]) weights) but grow the
// graphs two orders of magnitude, with dependency counts O(|V|) so the
// instances exercise sparse storage rather than defeating it.
//
// Two structures cover the regime's extremes: layered DAGs (wide, short
// — heavy ready-set pressure, ~3 dependencies per task) and parallel
// chains (narrow, deep — 100-task chains stress iterative traversal and
// insertion). Both pair with ScaleNetwork, a clustered machine model
// whose link matrix is one shared default strength plus O(|V|) stronger
// intra-cluster exceptions — the shape the sparse Tables layout stores
// in O(exceptions) instead of O(nodes²).

// ScaleSizes maps the scale-tier size suffixes to task counts.
var ScaleSizes = map[string]int{"1k": 1000, "5k": 5000, "10k": 10000}

// scaleNetNodes and scaleClusterSize fix the scale-tier network shape:
// scaleNetNodes machines in clusters of scaleClusterSize, every
// cross-cluster link at one shared default strength.
const (
	scaleNetNodes    = 32
	scaleClusterSize = 4
)

// ScaleNetwork builds the scale-tier network: scaleNetNodes machines
// with clipped-gaussian speeds, every cross-cluster link at a single
// shared base strength, and intra-cluster links boosted 2-4× above it.
// The exception count is clusters · C(scaleClusterSize, 2) pairs —
// linear in the node count — so edge-sparse Tables store the whole link
// structure in O(|V|) entries.
func ScaleNetwork(r *rng.RNG) *graph.Network {
	n := scaleNetNodes
	base := clampNet(gauss2(r))
	net := graph.NewNetwork(n)
	for v := 0; v < n; v++ {
		net.Speeds[v] = r.ClippedGaussian(1, 1.0/3, 0.2, 2)
		for u := v + 1; u < n; u++ {
			if u/scaleClusterSize == v/scaleClusterSize {
				net.SetLink(v, u, clampNet(base*r.Uniform(2, 4)))
			} else {
				net.SetLink(v, u, base)
			}
		}
	}
	return net
}

// scaleLayered builds a layered DAG with n tasks: tasks fill layers of
// 16-64 tasks, and every task past the first layer depends on 2-4
// distinct tasks of the previous layer, giving |D| ≈ 3|V|.
func scaleLayered(r *rng.RNG, n int) *graph.TaskGraph {
	g := graph.NewTaskGraph()
	var prev []int
	id := 0
	for id < n {
		width := r.IntBetween(16, 64)
		if id+width > n {
			width = n - id
		}
		layer := make([]int, width)
		for i := range layer {
			t := g.AddTask(fmt.Sprintf("t%d", id), gauss2(r))
			id++
			layer[i] = t
			if len(prev) == 0 {
				continue
			}
			k := r.IntBetween(2, 4)
			if k > len(prev) {
				k = len(prev)
			}
			// Draw k distinct predecessors; with layers ≥16 wide and k ≤ 4,
			// rejection terminates almost immediately.
			chosen := make(map[int]bool, k)
			for len(chosen) < k {
				p := prev[r.Intn(len(prev))]
				if !chosen[p] {
					chosen[p] = true
					g.MustAddDep(p, t, gauss2(r))
				}
			}
		}
		prev = layer
	}
	return g
}

// scaleChains builds n/100 independent chains of exactly 100 tasks each
// — the deep, narrow counterpart to scaleLayered.
func scaleChains(r *rng.RNG, n int) *graph.TaskGraph {
	const depth = 100
	g := graph.NewTaskGraph()
	id := 0
	for c := 0; c < n/depth; c++ {
		prev := -1
		for i := 0; i < depth; i++ {
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

func init() {
	for suffix, n := range ScaleSizes {
		Register("scale_layered_"+suffix, func(r *rng.RNG) *graph.Instance {
			return graph.NewInstance(scaleLayered(r, n), ScaleNetwork(r))
		})
		Register("scale_chains_"+suffix, func(r *rng.RNG) *graph.Instance {
			return graph.NewInstance(scaleChains(r, n), ScaleNetwork(r))
		})
	}
}
