package schedule

import (
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
)

// unskippedBestEFTNode is BestEFTNode as it was before it skipped nodes
// whose ready time plus duration already reaches the bound, kept verbatim
// as the oracle for TestBestEFTNodeMatchesUnskipped: every node's
// timeline is probed.
func (b *Builder) unskippedBestEFTNode(t int, insertion bool) (node int, start float64) {
	ready, _ := b.ReadyRow(t)
	bestNode, bestStart, bestFinish := -1, 0.0, math.Inf(1)
	for v, r := range ready {
		s, f := b.EFTFrom(t, v, r, insertion)
		if f < bestFinish-graph.Eps {
			bestNode, bestStart, bestFinish = v, s, f
		}
	}
	return bestNode, bestStart
}

// checkBestEFTAgainstUnskipped places every task of the builder's
// instance in a seeded random topological order and, before each
// placement, requires BestEFTNode to return the unskipped probe's node
// and start bit for bit. A quarter of the tasks then go to a random node
// instead of the best one, so the partial schedules carry gaps and
// backlogs a best-only construction would not.
func checkBestEFTAgainstUnskipped(t *testing.T, label string, b *Builder, r *rand.Rand, insertion bool) {
	t.Helper()
	g := b.Instance().Graph
	nV := b.Instance().Net.NumNodes()
	pending := make([]int, g.NumTasks())
	var ready []int
	for task := range pending {
		if pending[task] = len(g.Pred[task]); pending[task] == 0 {
			ready = append(ready, task)
		}
	}
	for len(ready) > 0 {
		i := r.Intn(len(ready))
		task := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		wantNode, wantStart := b.unskippedBestEFTNode(task, insertion)
		node, start := b.BestEFTNode(task, insertion)
		if node != wantNode || math.Float64bits(start) != math.Float64bits(wantStart) {
			t.Fatalf("%s insertion=%v task %d: BestEFTNode (%d, %v), unskipped (%d, %v)",
				label, insertion, task, node, start, wantNode, wantStart)
		}
		if r.Intn(4) == 0 {
			placeEFT(t, b, task, r.Intn(nV), insertion)
		} else {
			b.Place(task, node, start)
		}
		for _, d := range g.Succ[task] {
			if pending[d.To]--; pending[d.To] == 0 {
				ready = append(ready, d.To)
			}
		}
	}
}

// TestBestEFTNodeMatchesUnskipped holds the bound-skipping EFT scan to
// the scan that probes every node, over seeded partial schedules with
// insertion on and off: zero-duration tasks, integer grids on which
// finishes tie exactly, node speeds and link strengths a relative 1e-10
// apart so finishes land within Eps of each other or 1.0001·Eps apart so
// they land just past it, and one-node networks. Then scale_layered_1k and scale_chains_1k through a table-
// bound builder, the path the schedulers take; their 10k rows run under
// SCALE_BENCH_GATE=1 (`make bench-scale`).
func TestBestEFTNodeMatchesUnskipped(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		nTasks, nNodes := 10+r.Intn(50), 1+r.Intn(6)
		grid := r.Intn(2) == 0
		weight := func() float64 {
			if grid || r.Intn(4) == 0 {
				return float64(r.Intn(4)) // zero a quarter of the time
			}
			return r.Float64() * 4
		}
		// Relative offsets below Eps make near-ties that the strict
		// test must keep on the lower node; 1.0001·Eps puts a unit-cost
		// finish just past the bound.
		near := func(x float64) float64 {
			return x * (1 + [4]float64{0, 1e-10, 2e-10, 1.0001 * graph.Eps}[r.Intn(4)])
		}
		g := graph.NewTaskGraph()
		for i := 0; i < nTasks; i++ {
			g.AddTask("t", weight())
		}
		for j := 1; j < nTasks; j++ {
			for k := r.Intn(4); k > 0; k-- {
				if i := r.Intn(j); !g.HasDep(i, j) {
					g.MustAddDep(i, j, weight())
				}
			}
		}
		net := graph.NewNetwork(nNodes)
		for v := 0; v < nNodes; v++ {
			net.Speeds[v] = near(float64(1 + r.Intn(2)))
			for u := v + 1; u < nNodes; u++ {
				net.SetLink(v, u, near(float64(1+r.Intn(2))))
			}
		}
		inst := graph.NewInstance(g, net)
		for _, insertion := range []bool{true, false} {
			checkBestEFTAgainstUnskipped(t, "seeded", newBuilder(inst), r, insertion)
		}
	}
	for _, name := range []string{"scale_layered_1k", "scale_chains_1k", "scale_layered_10k", "scale_chains_10k"} {
		t.Run(name, func(t *testing.T) {
			if strings.HasSuffix(name, "10k") && os.Getenv("SCALE_BENCH_GATE") == "" {
				t.Skip("10k row; run via `make bench-scale` (SCALE_BENCH_GATE=1)")
			}
			insts, err := datasets.Dataset(name, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(1))
			for _, insertion := range []bool{true, false} {
				checkBestEFTAgainstUnskipped(t, name, newBuilder(insts[0]), r, insertion)
			}
		})
	}
}

// TestAppendRowMatchesEFTFrom holds the no-insertion row kernel to
// per-node EFTFrom bit for bit, over seeded partial schedules built in a
// random topological order. Each task is scored on
// its ready row, on each node's available time (ready equal to
// availability) and on that time less Eps/2 (ready within Eps below it),
// and a quarter of the tasks cost zero.
func TestAppendRowMatchesEFTFrom(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		nTasks, nNodes := 10+r.Intn(50), 1+r.Intn(6)
		weight := func() float64 {
			if r.Intn(4) == 0 {
				return 0
			}
			if r.Intn(2) == 0 {
				return float64(r.Intn(4))
			}
			return r.Float64() * 4
		}
		g := graph.NewTaskGraph()
		for i := 0; i < nTasks; i++ {
			g.AddTask("t", weight())
		}
		for j := 1; j < nTasks; j++ {
			for k := r.Intn(4); k > 0; k-- {
				if i := r.Intn(j); !g.HasDep(i, j) {
					g.MustAddDep(i, j, weight())
				}
			}
		}
		net := graph.NewNetwork(nNodes)
		for v := 0; v < nNodes; v++ {
			net.Speeds[v] = float64(1+r.Intn(3)) / 2
			for u := v + 1; u < nNodes; u++ {
				net.SetLink(v, u, float64(1+r.Intn(2)))
			}
		}
		checkAppendRow(t, seed, newBuilder(graph.NewInstance(g, net)), r)
	}
}

// checkAppendRow places every task of the builder's instance in a seeded
// random topological order on a random node, at its no-insertion start
// there, and before each placement compares AppendRow with EFTFrom on
// the nodes' available times, on those less Eps/2, and on the task's
// ready row (the last fill, whose starts the placement reads).
func checkAppendRow(t *testing.T, seed int64, b *Builder, r *rand.Rand) {
	t.Helper()
	g := b.Instance().Graph
	nV := b.Instance().Net.NumNodes()
	avail, below := make([]float64, nV), make([]float64, nV)
	start, finish := make([]float64, nV), make([]float64, nV)
	pending := make([]int, g.NumTasks())
	var ready []int
	for task := range pending {
		if pending[task] = len(g.Pred[task]); pending[task] == 0 {
			ready = append(ready, task)
		}
	}
	for len(ready) > 0 {
		i := r.Intn(len(ready))
		task := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		row, _ := b.ReadyRow(task)
		for v := range avail {
			avail[v] = b.NodeAvailable(v)
			below[v] = math.Max(avail[v]-graph.Eps/2, 0)
		}
		for _, at := range [][]float64{avail, below, row} {
			b.AppendRow(task, at, start, finish)
			for v, rv := range at {
				s, f := b.EFTFrom(task, v, rv, false)
				if math.Float64bits(s) != math.Float64bits(start[v]) || math.Float64bits(f) != math.Float64bits(finish[v]) {
					t.Fatalf("seed %d task %d node %d ready %v: AppendRow (%v, %v), EFTFrom (%v, %v)",
						seed, task, v, rv, start[v], finish[v], s, f)
				}
			}
		}
		v := r.Intn(nV)
		b.Place(task, v, start[v])
		for _, d := range g.Succ[task] {
			if pending[d.To]--; pending[d.To] == 0 {
				ready = append(ready, d.To)
			}
		}
	}
}
