package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/scheduler"
	_ "saga/internal/schedulers"
)

func benchSched(b *testing.B, name string) scheduler.Scheduler {
	b.Helper()
	s, err := scheduler.New(name)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// pisaBenchInstances are the annealing workloads BenchmarkPISAIteration
// sweeps. The candidate-generation overhead the incremental loop
// removes — instance copy, link-table rebuild, per-edge average pair
// loops — grows with the network (O(|V|²) and O(|D|·|V|²) terms) while
// scheduling grows roughly linearly in |V|, so the speedup rises with
// node count: the Section VI chain (3-5 nodes) measures the paper's
// pairwise grid, the fog/cloud scales measure the repo's edge-fog-cloud
// scenarios (datasets.EdgeFogCloudNetwork is ~100 nodes). wide64 is the
// task-heavy counterpart — a 64-task layered DAG over 8 nodes, the
// BenchmarkScheduleHotPath workload shape — where the per-candidate rank and topo
// computations (the work rank memoization and the incremental Kahn
// repair deduplicate) carry a visible share of the iteration.
func pisaBenchInstances() map[string]*graph.Instance {
	r := rng.New(0x90a)
	chainOn := func(net *graph.Network) *graph.Instance {
		g := graph.NewTaskGraph()
		prev := -1
		for i := 0; i < 5; i++ {
			t := g.AddTask(fmt.Sprintf("t%d", i), r.Float64())
			if prev >= 0 {
				g.MustAddDep(prev, t, r.Float64())
			}
			prev = t
		}
		return graph.NewInstance(g, net)
	}
	wide := graph.NewNetwork(48)
	for v := range wide.Speeds {
		wide.Speeds[v] = 0.01 + r.Float64()
		for u := v + 1; u < wide.NumNodes(); u++ {
			wide.SetLink(v, u, 0.01+r.Float64())
		}
	}
	layered := func(net *graph.Network) *graph.Instance {
		g := graph.NewTaskGraph()
		const layers, width = 8, 8
		for l := 0; l < layers; l++ {
			for w := 0; w < width; w++ {
				t := g.AddTask(fmt.Sprintf("t%d_%d", l, w), 0.1+r.Float64())
				if l > 0 {
					for k := 0; k < 1+r.Intn(3); k++ {
						p := (l-1)*width + r.Intn(width)
						if !g.HasDep(p, t) {
							g.MustAddDep(p, t, 0.1+r.Float64())
						}
					}
				}
			}
		}
		return graph.NewInstance(g, net)
	}
	eight := graph.NewNetwork(8)
	for v := range eight.Speeds {
		eight.Speeds[v] = 0.01 + r.Float64()
		for u := v + 1; u < eight.NumNodes(); u++ {
			eight.SetLink(v, u, 0.01+r.Float64())
		}
	}
	return map[string]*graph.Instance{
		"chain":  datasets.InitialPISAInstance(r.Split()),
		"fog48":  chainOn(wide),
		"wide64": layered(eight),
		"cloud":  chainOn(datasets.EdgeFogCloudNetwork(r.Split())),
	}
}

var pisaBenchScales = []string{"chain", "fog48", "wide64", "cloud"}

// runIncrementalIteration is the steady-state incremental annealing
// cycle for the HEFT-vs-CPoP pair — perturb in place, delta-patch the
// tables, evaluate both schedulers through the shared (memoized)
// scratch, accept or roll back — shared by BenchmarkPISAIteration and
// the TestPISAIterationMemoizationGate timing gate.
func runIncrementalIteration(b *testing.B, inst0 *graph.Instance) {
	p := DefaultPerturb().withDefaults()
	r := rng.New(0xbe7c)
	cur := inst0.Clone()
	ev := newEvaluator(benchSched(b, "HEFT"), benchSched(b, "CPoP"), nil)
	ps := &perturbState{ops: enabledOps(p)}
	tab := ev.prepare(cur)
	best := cur.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perturbInPlace(cur, r, p, ps)
		applyTables(tab, ps)
		ratio, err := ev.ratioPrepared(cur)
		if err != nil {
			b.Fatal(err)
		}
		if math.IsNaN(ratio) {
			b.Fatal("NaN ratio")
		}
		if i%3 == 0 {
			best.CopyFrom(cur) // accept + new incumbent
		} else {
			revert(cur, tab, ps) // reject
		}
	}
}

// runReferenceIteration is the copy-and-rebuild counterpart with rank
// memoization disabled — the PR 4 baseline exactly as RunReference
// executes it (full Instance copy + full Tables rebuild + uncached
// ranks per candidate).
func runReferenceIteration(b *testing.B, inst0 *graph.Instance) {
	p := DefaultPerturb().withDefaults()
	r := rng.New(0xbe7c)
	cur := inst0.Clone()
	scr := scheduler.NewScratch()
	scr.SetEvalCache(false)
	ev := newEvaluator(benchSched(b, "HEFT"), benchSched(b, "CPoP"), scr)
	cand := cur.Clone()
	best := cur.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cand.CopyFrom(cur)
		refPerturb(cand, r, p)
		ratio, err := ev.ratio(cand)
		if err != nil {
			b.Fatal(err)
		}
		if math.IsNaN(ratio) {
			b.Fatal("NaN ratio")
		}
		if i%3 == 0 {
			best.CopyFrom(cand)
			cur, cand = cand, cur
		}
	}
}

// BenchmarkPISAIteration measures one steady-state annealing iteration
// for the HEFT-vs-CPoP pair — perturb, evaluate both schedulers, and
// accept (incumbent copy) or reject (roll back) — comparing the
// incremental inner loop (mutate in place, undo log, delta Tables
// updates, rank memoization across the scheduler pair) against the
// retained copy-and-rebuild reference (full Instance copy + full Tables
// rebuild + uncached ranks per candidate) across the workload scales of
// pisaBenchInstances. Run with -benchmem: the incremental cycle must
// report 0 allocs/op once warm at every scale (`make bench-pisa` gates
// it, and TestPISASteadyStateZeroAlloc asserts it exactly); the
// incremental/reference ratio is gated at ≥1.3× by
// TestPISAIterationMemoizationGate. Measured ratios are in
// EXPERIMENTS.md ("The PISA inner-loop gates").
func BenchmarkPISAIteration(b *testing.B) {
	for _, scale := range pisaBenchScales {
		inst0 := pisaBenchInstances()[scale]
		b.Run(scale+"/incremental", func(b *testing.B) { runIncrementalIteration(b, inst0) })
		b.Run(scale+"/reference", func(b *testing.B) { runReferenceIteration(b, inst0) })
	}
}

// BenchmarkPISACandidateGen isolates exactly the work the incremental
// rewrite replaced — producing one candidate from the current state and
// undoing a rejection, with no scheduler evaluation: perturb-in-place +
// delta table patch + undo-log rollback, versus full Instance.CopyFrom
// + full Tables rebuild (the per-edge averages included, as every
// rank-reading scheduler forces them). The per-iteration evaluation
// cost that remains in BenchmarkPISAIteration is identical on both
// sides.
func BenchmarkPISACandidateGen(b *testing.B) {
	p := DefaultPerturb().withDefaults()
	for _, scale := range pisaBenchScales {
		inst0 := pisaBenchInstances()[scale]

		b.Run(scale+"/incremental", func(b *testing.B) {
			r := rng.New(0xbe7c)
			cur := inst0.Clone()
			ps := &perturbState{ops: enabledOps(p)}
			var tab graph.Tables
			tab.Build(cur)
			tab.EnsureAvgComm()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				perturbInPlace(cur, r, p, ps)
				applyTables(&tab, ps)
				tab.EnsureAvgComm() // what a rank-reading scheduler would force
				revert(cur, &tab, ps)
			}
		})

		b.Run(scale+"/reference", func(b *testing.B) {
			r := rng.New(0xbe7c)
			cur := inst0.Clone()
			cand := cur.Clone()
			var tab graph.Tables
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cand.CopyFrom(cur)
				refPerturb(cand, r, p)
				tab.Build(cand)
				tab.EnsureAvgComm()
			}
		})
	}
}

// BenchmarkPISARun measures one full PISA run end to end — the
// incremental inner loop (mutate in place, undo log, delta Tables
// updates, rank memoization across the scheduler pair) against the
// copy-and-rebuild, cache-disabled reference (RunReference) on identical
// options, seeds, and scheduler pair. The two produce byte-identical
// Results (proven in incremental_test.go), so the ratio of their ns/op
// is the pure speedup of the candidate-generation rewrite plus the
// shared evaluation cache. Per-iteration numbers and the allocation
// gate live in BenchmarkPISAIteration; `make bench-pisa` runs it once
// so it cannot rot.
func BenchmarkPISARun(b *testing.B) {
	variants := []struct {
		name string
		run  func(target, baseline scheduler.Scheduler, opts Options) (*Result, error)
	}{
		{"incremental", Run},
		{"reference", RunReference},
		// parallel is Run with Workers=NumCPU — bit-identical results
		// (parallel_test.go), so its ns/op against the incremental variant
		// is the pure intra-cell scaling. On a single-core host it measures
		// the fan-out's overhead instead.
		{"parallel", func(target, baseline scheduler.Scheduler, opts Options) (*Result, error) {
			opts.Workers = runtime.NumCPU()
			return Run(target, baseline, opts)
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			heft, cpop := benchSched(b, "HEFT"), benchSched(b, "CPoP")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := DefaultOptions()
				opts.MaxIters = 500
				opts.Restarts = 2
				opts.Seed = uint64(i + 1)
				opts.InitialInstance = datasets.InitialPISAInstance
				if _, err := v.run(heft, cpop, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGAAdversarial measures the genetic adversarial finder at a
// budget comparable to one annealing restart — the incremental loop
// (recycled instance banks, in-place crossover and mutation, memoized
// ranks) against the clone-and-full-Prepare reference
// (RunGAReference). The two produce byte-identical Results
// (genetic_incremental_test.go), so the ns/op ratio is the pure cost of
// the machinery the rewrite removed.
func BenchmarkGAAdversarial(b *testing.B) {
	variants := []struct {
		name string
		run  func(target, baseline scheduler.Scheduler, opts GAOptions) (*Result, error)
	}{
		{"incremental", RunGA},
		{"reference", RunGAReference},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			heft, cpop := benchSched(b, "HEFT"), benchSched(b, "CPoP")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := DefaultGAOptions()
				opts.PopulationSize = 10
				opts.Generations = 20
				opts.Seed = uint64(i + 1)
				opts.InitialInstance = datasets.InitialPISAInstance
				if _, err := v.run(heft, cpop, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
