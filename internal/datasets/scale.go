package datasets

import (
	"slices"
	"strconv"

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
// insertion). Both pair with scaleNetwork, a clustered machine model
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

// scaleNetwork builds the scale-tier network: scaleNetNodes machines
// with clipped-gaussian speeds, every cross-cluster link at a single
// shared base strength, and intra-cluster links boosted 2-4× above it.
// The exception count is clusters · C(scaleClusterSize, 2) pairs —
// linear in the node count — so edge-sparse Tables store the whole link
// structure in O(|V|) entries.
func scaleNetwork(r *rng.RNG) *graph.Network {
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

// scaleTaskName is the name of the id-th task of a scale graph.
func scaleTaskName(id int) string { return "t" + strconv.Itoa(id) }

// scaleEdge is one dependency of a scale graph, in draw order.
type scaleEdge struct {
	u, v int
	cost float64
}

// scaleGraph assembles a scale graph from its tasks and its edges in
// the order they were drawn. Every edge runs from an earlier task to a
// later one and none repeats, so each goes in unchecked, into adjacency
// rows ReserveDeps cuts from one allocation.
func scaleGraph(tasks []graph.Task, edges []scaleEdge) *graph.TaskGraph {
	n := len(tasks)
	g := &graph.TaskGraph{Tasks: tasks}
	deg := make([]int, 2*n)
	out, in := deg[:n], deg[n:]
	for _, e := range edges {
		out[e.u]++
		in[e.v]++
	}
	g.ReserveDeps(out, in)
	for _, e := range edges {
		g.AddDepUnchecked(e.u, e.v, e.cost)
	}
	return g
}

// scaleLayered builds a layered DAG with n tasks: tasks fill layers of
// 16-64 tasks, and every task past the first layer depends on 2-4
// distinct tasks of the previous layer, giving |D| ≈ 3|V|.
func scaleLayered(r *rng.RNG, n int) *graph.TaskGraph {
	tasks := make([]graph.Task, 0, n)
	edges := make([]scaleEdge, 0, 3*n)
	prev, start := 0, 0 // the previous layer is tasks [prev, start)
	for len(tasks) < n {
		width := min(r.IntBetween(16, 64), n-len(tasks))
		for range width {
			t := len(tasks)
			tasks = append(tasks, graph.Task{Name: scaleTaskName(t), Cost: gauss2(r)})
			if start == 0 {
				continue
			}
			k := min(r.IntBetween(2, 4), start-prev)
			// Draw k distinct predecessors; with layers ≥16 wide and k ≤ 4,
			// rejection terminates almost immediately.
			var chosen [4]int
			for m := 0; m < k; {
				p := prev + r.Intn(start-prev)
				if !slices.Contains(chosen[:m], p) {
					chosen[m] = p
					m++
					edges = append(edges, scaleEdge{p, t, gauss2(r)})
				}
			}
		}
		prev, start = start, len(tasks)
	}
	return scaleGraph(tasks, edges)
}

// scaleChains builds n/100 independent chains of exactly 100 tasks each
// — the deep, narrow counterpart to scaleLayered.
func scaleChains(r *rng.RNG, n int) *graph.TaskGraph {
	const depth = 100
	tasks := make([]graph.Task, 0, n)
	edges := make([]scaleEdge, 0, n)
	for range n / depth {
		for i := range depth {
			t := len(tasks)
			tasks = append(tasks, graph.Task{Name: scaleTaskName(t), Cost: gauss2(r)})
			if i > 0 {
				edges = append(edges, scaleEdge{t - 1, t, gauss2(r)})
			}
		}
	}
	return scaleGraph(tasks, edges)
}

func init() {
	for suffix, n := range ScaleSizes {
		register("scale_layered_"+suffix, func(r *rng.RNG) *graph.Instance {
			return graph.NewInstance(scaleLayered(r, n), scaleNetwork(r))
		})
		register("scale_chains_"+suffix, func(r *rng.RNG) *graph.Instance {
			return graph.NewInstance(scaleChains(r, n), scaleNetwork(r))
		})
	}
}
