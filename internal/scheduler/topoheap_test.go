package scheduler

import (
	"math"
	"os"
	"strings"
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
)

// scanTopoOrderByPriority is topoOrderByPriority as it was before the
// frontier became a heap, kept verbatim as the oracle for
// TestTopoOrderByPriorityMatchesScan: a left-to-right scan of the
// index-sorted ready set keeps the first maximum, and Complete maintains
// the sorted frontier. The caller resets rs.
func scanTopoOrderByPriority(rs *ReadySet, g *graph.TaskGraph, priority []float64, dst []int) []int {
	for !rs.Empty() {
		ready := rs.Ready()
		best := ready[0]
		for _, t := range ready[1:] {
			if priority[t] > priority[best] {
				best = t
			}
		}
		dst = append(dst, best)
		rs.Complete(best)
	}
	if len(dst) != g.NumTasks() {
		panic("scheduler: TopoOrderByPriority on cyclic graph")
	}
	return dst
}

// topoTestDAG is a seeded random DAG of n tasks: each task draws up to
// three predecessors among the earlier ones, so frontiers range from a
// single task to most of the graph.
func topoTestDAG(r *rng.RNG, n int) *graph.TaskGraph {
	g := graph.NewTaskGraph()
	for t := 0; t < n; t++ {
		g.AddTask("t", 1)
		for k := r.Intn(4); k > 0 && t > 0; k-- {
			if u := r.Intn(t); !g.HasDep(u, t) {
				g.MustAddDep(u, t, 1)
			}
		}
	}
	return g
}

// assertHeapMatchesScan compares the heap order with the scan oracle
// through the package function and a scratch (a caller-owned priority,
// so the generic order buffer), then checks that a ready set borrowed
// from the same scratch afterwards still starts at g's sources.
func assertHeapMatchesScan(t *testing.T, name string, s *Scratch, g *graph.TaskGraph, priority []float64) {
	t.Helper()
	want := scanTopoOrderByPriority(NewReadySet(g), g, priority, nil)
	assertSameOrder(t, name, TopoOrderByPriority(g, priority), want)
	assertSameOrder(t, name+" (scratch)", s.TopoOrderByPriority(g, priority), want)
	rs := s.ReadySet(g)
	assertSameOrder(t, name+" (ready set after)", rs.Ready(), NewReadySet(g).Ready())
}

// TestTopoOrderByPriorityMatchesScan holds the heap-ordered priority Kahn
// to the scan it replaced, task for task: seeded DAGs under integer
// priorities with many ties, all-equal priorities, a +0/−0 mix, and
// continuous priorities; then the upward-rank order of scale_chains_1k
// and scale_layered_1k, exact and rounded to force ties, through the
// memoized scratch path as well. The 10k rows run under
// SCALE_BENCH_GATE=1 (`make bench-scale`).
func TestTopoOrderByPriorityMatchesScan(t *testing.T) {
	r := rng.New(0x4ea9)
	s := NewScratch()
	negZero := math.Copysign(0, -1)
	for i := 0; i < 60; i++ {
		g := topoTestDAG(r.Split(), 1+r.Intn(200))
		for _, kind := range []string{"integer", "all-equal", "signed-zero", "continuous"} {
			p := make([]float64, g.NumTasks())
			for t := range p {
				switch kind {
				case "integer":
					p[t] = float64(r.Intn(4))
				case "all-equal":
					p[t] = 1
				case "signed-zero":
					p[t] = [3]float64{0, negZero, 1}[r.Intn(3)]
				default:
					p[t] = r.Float64()
				}
			}
			assertHeapMatchesScan(t, kind, s, g, p)
		}
	}
	for _, name := range []string{"scale_chains_1k", "scale_layered_1k", "scale_chains_10k", "scale_layered_10k"} {
		t.Run(name, func(t *testing.T) {
			if strings.HasSuffix(name, "10k") && os.Getenv("SCALE_BENCH_GATE") == "" {
				t.Skip("10k row; run via `make bench-scale` (SCALE_BENCH_GATE=1)")
			}
			insts, err := datasets.Dataset(name, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			inst := insts[0]
			g := inst.Graph
			up := s.UpwardRank(inst)
			want := scanTopoOrderByPriority(NewReadySet(g), g, up, nil)
			assertSameOrder(t, "rank_u (memo)", s.TopoOrderByPriority(g, up), want)
			assertHeapMatchesScan(t, "rank_u", s, g, append([]float64(nil), up...))
			coarse := make([]float64, len(up))
			for i, x := range up {
				coarse[i] = math.Floor(x / 50)
			}
			assertHeapMatchesScan(t, "rank_u/50 floored", s, g, coarse)
		})
	}
}
