package graph

import (
	"math"
	"testing"

	"saga/internal/rng"
)

// avgCommNetworks returns the link layouts the four-lane average kernel
// branches on: sparseRandInstance's five modes (homogeneous, clustered,
// heterogeneous, free, mixed) at 5 and 32 nodes, a finite default with
// some +Inf exceptions (free pairs inside the default branch), and a
// one-node network.
func avgCommNetworks(r *rng.RNG) []*Network {
	var nets []*Network
	for _, nV := range []int{5, 32} {
		for mode := 0; mode < 5; mode++ {
			nets = append(nets, sparseRandInstance(r.Split(), 1, nV, mode).Net)
		}
		net := sparseRandInstance(r.Split(), 1, nV, 0).Net
		net.SetLink(0, nV-1, math.Inf(1))
		net.SetLink(1, 2, math.Inf(1))
		nets = append(nets, net)
	}
	return append(nets, NewNetwork(1))
}

// avgCommGraph returns a 6-task DAG with exactly m forward edges (m ≤ 15)
// whose costs are random except that every third edge in successor order
// costs zero — so a batch of four holds zero-cost lanes beside live ones —
// and, when negZero is set, every fifth costs −0.
func avgCommGraph(r *rng.RNG, m int, negZero bool) *TaskGraph {
	g := NewTaskGraph()
	for t := 0; t < 6; t++ {
		g.AddTask("", 1)
	}
	var pairs [][2]int
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	perm := r.Perm(len(pairs))
	for _, i := range perm[:m] {
		g.MustAddDep(pairs[i][0], pairs[i][1], 0.5+4*r.Float64())
	}
	e := 0
	for u := 0; u < 6; u++ {
		for _, d := range g.Succ[u] {
			switch {
			case e%3 == 2:
				g.SetDepCost(u, d.To, 0)
			case negZero && e%5 == 4:
				g.SetDepCost(u, d.To, math.Copysign(0, -1))
			}
			e++
		}
	}
	return g
}

// TestAvgCommFourLaneMatchesDense holds the four-edges-per-pass average
// fill to DenseTables.avgCommTimeFlat, the dense one-edge pair loop, bit
// for bit: edge counts 0–9 so every batch tail length (0–3 lanes) is hit,
// zero-cost and −0 edges inside a batch, every link layout of
// avgCommNetworks, and the one-live-lane UpdateDepWeight patch.
func TestAvgCommFourLaneMatchesDense(t *testing.T) {
	r := rng.New(0xA4C0)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for ni, net := range avgCommNetworks(r) {
		for m := 0; m <= 9; m++ {
			for _, negZero := range []bool{false, true} {
				g := avgCommGraph(r.Split(), m, negZero)
				inst := NewInstance(g, net)
				var sp Tables
				var dn DenseTables
				sp.Build(inst)
				dn.Build(inst)
				sp.EnsureAvgComm()
				for u := 0; u < g.NumTasks(); u++ {
					for i, d := range g.Succ[u] {
						if got, want := sp.AvgCommSucc(u, i), dn.avgCommTimeFlat(d.Cost); !same(got, want) {
							t.Fatalf("net %d, %d edges: edge (%d,%d) cost %v: four-lane %v, dense %v", ni, m, u, d.To, d.Cost, got, want)
						}
					}
				}
				dn.EnsureAvgComm()
				assertSparseMatchesDense(t, &sp, &dn, g)
				if m == 0 {
					continue
				}
				u, v := g.DepAt(r.Intn(m))
				g.SetDepCost(u, v, 0.5+4*r.Float64())
				sp.UpdateDepWeight(u, v)
				dn.UpdateDepWeight(u, v)
				i := succIndex(g, u, v)
				if a, b := sp.AvgCommSucc(u, i), dn.AvgCommSucc(u, i); !same(a, b) {
					t.Fatalf("net %d, %d edges: UpdateDepWeight(%d,%d): four-lane %v, dense %v", ni, m, u, v, a, b)
				}
				assertSparseMatchesDense(t, &sp, &dn, g)
			}
		}
	}
}
