// Package saga's root benchmark harness: one benchmark per paper table
// and figure (see EXPERIMENTS.md for the index), plus per-algorithm
// microbenchmarks and ablations of the design choices DESIGN.md calls
// out. Benchmarks run at reduced scale so `go test -bench=.` finishes in
// seconds; every driver takes the paper-scale parameters through
// cmd/figures flags instead.
package saga

import (
	"fmt"
	"testing"

	"saga/internal/core"
	"saga/internal/datasets"
	"saga/internal/exact"
	"saga/internal/experiments"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/runner"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	"saga/internal/schedulers"
	"saga/internal/serialize"
	"saga/internal/sim"
	"saga/internal/wfc"
)

func mustSched(b *testing.B, name string) scheduler.Scheduler {
	b.Helper()
	s, err := scheduler.New(name)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func smallAnneal(iters, restarts int) core.Options {
	o := core.DefaultOptions()
	o.MaxIters = iters
	o.Restarts = restarts
	return o
}

// BenchmarkTable1SchedulerRoster exercises every Table I algorithm once
// per iteration on the Fig 1 instance — the per-algorithm scheduling
// cost on a tiny instance.
func BenchmarkTable1SchedulerRoster(b *testing.B) {
	inst := datasets.Fig1Instance()
	names := append(append([]string{}, schedulers.ExperimentalNames...), "BruteForce", "SMT")
	for _, name := range names {
		s := mustSched(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scheduler.Schedule(s, inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2DatasetGenerators draws one instance from every Table
// II generator per iteration.
func BenchmarkTable2DatasetGenerators(b *testing.B) {
	for _, name := range datasets.TableII {
		g, err := datasets.New(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			r := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst := g(r.Split())
				if inst.Graph.NumTasks() == 0 {
					b.Fatal("empty instance")
				}
			}
		})
	}
}

// BenchmarkFig2Benchmarking runs the benchmarking grid at reduced scale:
// all 15 algorithms on 2 instances of every dataset per iteration.
func BenchmarkFig2Benchmarking(b *testing.B) {
	scheds := schedulers.Experimental()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BenchmarkingRun(datasets.TableII, scheds, 2, uint64(i+1), runner.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3NetworkModification schedules the Fig 3 instance pair
// with HEFT and CPoP per iteration.
func BenchmarkFig3NetworkModification(b *testing.B) {
	heft, cpop := mustSched(b, "HEFT"), mustSched(b, "CPoP")
	orig, mod := datasets.Fig3Instance(false), datasets.Fig3Instance(true)
	for i := 0; i < b.N; i++ {
		for _, inst := range []*graph.Instance{orig, mod} {
			if _, err := scheduler.Schedule(heft, inst); err != nil {
				b.Fatal(err)
			}
			if _, err := scheduler.Schedule(cpop, inst); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig4PISAPairwise runs the pairwise adversarial grid over a
// 4-scheduler subset at reduced annealing scale per iteration. The full
// 15x15 paper grid is cmd/figures fig4.
func BenchmarkFig4PISAPairwise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSweep(b, "pairwise", experiments.SweepParams{
			Schedulers: []string{"HEFT", "CPoP", "MinMin", "FastestNode"},
			Iters:      50, Restarts: 1, Seed: uint64(i + 1),
		}, runner.Options{})
	}
}

// BenchmarkFig4SinglePair measures one full-scale PISA run (the paper's
// 1000 iterations x 5 restarts) for the headline HEFT-vs-FastestNode
// comparison.
func BenchmarkFig4SinglePair(b *testing.B) {
	heft, fastest := mustSched(b, "HEFT"), mustSched(b, "FastestNode")
	for i := 0; i < b.N; i++ {
		opts := core.DefaultOptions()
		opts.Seed = uint64(i + 1)
		if _, err := experiments.SinglePISA(heft, fastest, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5CaseStudy and BenchmarkFig6CaseStudy schedule the case
// study instances with both algorithms per iteration.
func BenchmarkFig5CaseStudy(b *testing.B) {
	benchCaseStudy(b, datasets.Fig5Instance())
}

// BenchmarkFig6CaseStudy is the CPoP-loses case study.
func BenchmarkFig6CaseStudy(b *testing.B) {
	benchCaseStudy(b, datasets.Fig6Instance())
}

func benchCaseStudy(b *testing.B, inst *graph.Instance) {
	heft, cpop := mustSched(b, "HEFT"), mustSched(b, "CPoP")
	for i := 0; i < b.N; i++ {
		if _, err := scheduler.Schedule(heft, inst); err != nil {
			b.Fatal(err)
		}
		if _, err := scheduler.Schedule(cpop, inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7ForkJoinFamily samples the HEFT-loses family (100
// instances per iteration, vs the paper's 1000) and schedules both
// algorithms.
func BenchmarkFig7ForkJoinFamily(b *testing.B) {
	benchFamily(b, "fig7")
}

// BenchmarkFig8WideForkFamily samples the CPoP-loses family.
func BenchmarkFig8WideForkFamily(b *testing.B) {
	benchFamily(b, "fig8")
}

func benchFamily(b *testing.B, sweep string) {
	for i := 0; i < b.N; i++ {
		runSweep(b, sweep, experiments.SweepParams{N: 100, Seed: uint64(i + 1)}, runner.Options{})
	}
}

// BenchmarkFig9WorkflowStructures generates the two Fig 9 workflow
// topologies per iteration.
func BenchmarkFig9WorkflowStructures(b *testing.B) {
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		for _, wf := range []string{"srasearch", "blast"} {
			if _, err := datasets.WorkflowRecipe(wf, r.Split()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig10AppSpecificPISA runs one application-specific block
// (srasearch at CCR 0.2, the paper's Fig 10 top-left) at reduced
// annealing scale: the whole benchmarking phase, then the block's first
// two PISA cells.
func BenchmarkFig10AppSpecificPISA(b *testing.B) {
	firstTwo := func(k int) bool { return k < 2 }
	for i := 0; i < b.N; i++ {
		runSweep(b, "appspecific", experiments.SweepParams{
			Workflow: "srasearch", CCR: 0.2, N: 2,
			Iters: 30, Restarts: 1, Seed: uint64(i + 1),
		}, runner.Options{Include: firstTwo})
	}
}

// hotPathInstance builds the fixed random-graph instance behind
// BenchmarkScheduleHotPath: a layered DAG of 64 tasks over a 6-node
// heterogeneous network, all weights drawn from the Section IV-B clipped
// gaussian. The seed is fixed so every measurement of it, before and
// after a change, sees the same workload.
func hotPathInstance() *graph.Instance {
	r := rng.New(0x407)
	g := graph.NewTaskGraph()
	const layers, width = 8, 8
	for l := 0; l < layers; l++ {
		for w := 0; w < width; w++ {
			t := g.AddTask(fmt.Sprintf("t%d_%d", l, w), r.ClippedGaussian(1, 1.0/3, 0.2, 2))
			if l > 0 {
				preds := 1 + r.Intn(3)
				for k := 0; k < preds; k++ {
					p := (l-1)*width + r.Intn(width)
					if !g.HasDep(p, t) {
						g.MustAddDep(p, t, r.ClippedGaussian(1, 1.0/3, 0.2, 2))
					}
				}
			}
		}
	}
	net := graph.NewNetwork(6)
	for v := range net.Speeds {
		net.Speeds[v] = r.ClippedGaussian(1, 1.0/3, 0.2, 2)
		for u := v + 1; u < net.NumNodes(); u++ {
			net.SetLink(v, u, r.ClippedGaussian(1, 1.0/3, 0.2, 2))
		}
	}
	return graph.NewInstance(g, net)
}

// BenchmarkScheduleHotPath measures one full Schedule() call per
// iteration for every Table I list scheduler on the random-graph scale
// (64 tasks, 6 nodes) — the scheduling inner loop PISA drives thousands
// of times per annealing chain, exercised exactly as core.Run drives it:
// a warm per-worker scratch and a reused output schedule. Run with
// -benchmem; steady state must report 0 allocs/op (`make bench-smoke`
// gates it). The numbers measured when the allocating builder-per-call
// path was replaced are in EXPERIMENTS.md ("The hot-path gate").
func BenchmarkScheduleHotPath(b *testing.B) {
	inst := hotPathInstance()
	for _, name := range schedulers.ExperimentalNames {
		s := mustSched(b, name)
		b.Run(name, func(b *testing.B) {
			scr := scheduler.NewScratch()
			var out schedule.Schedule
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := scheduler.ScheduleInto(s, inst, scr, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedulersOnWorkflow measures each experimental algorithm on
// a realistic mid-size instance (a montage workflow over a 6-node
// network) — the schedule-generation-time comparison Table I reports
// complexities for.
func BenchmarkSchedulersOnWorkflow(b *testing.B) {
	r := rng.New(42)
	g, err := datasets.WorkflowRecipe("montage", r.Split())
	if err != nil {
		b.Fatal(err)
	}
	net := graph.NewNetwork(6)
	rr := r.Split()
	for v := range net.Speeds {
		net.Speeds[v] = rr.ClippedGaussian(1, 1.0/3, 0.2, 2)
	}
	inst := graph.NewInstance(g, net)
	datasets.SetHomogeneousCCR(inst, 1)
	for _, s := range schedulers.Experimental() {
		s := s
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := scheduler.Schedule(s, inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedulersOnEdgeFogCloud measures the algorithms on the
// large-network IoT scenario (≈100 nodes).
func BenchmarkSchedulersOnEdgeFogCloud(b *testing.B) {
	r := rng.New(43)
	g, err := datasets.IoTRecipe("etl", r.Split())
	if err != nil {
		b.Fatal(err)
	}
	inst := graph.NewInstance(g, datasets.EdgeFogCloudNetwork(r.Split()))
	for _, name := range []string{"HEFT", "CPoP", "MinMin", "ETF", "GDL", "BIL"} {
		s := mustSched(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := scheduler.Schedule(s, inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationInsertion quantifies HEFT's insertion policy — the
// design choice separating HEFT from MCT-style appending (DESIGN.md).
// Both variants use HEFT's upward-rank order; only slot search differs.
func BenchmarkAblationInsertion(b *testing.B) {
	r := rng.New(44)
	g, err := datasets.WorkflowRecipe("epigenomics", r.Split())
	if err != nil {
		b.Fatal(err)
	}
	net := graph.NewNetwork(5)
	inst := graph.NewInstance(g, net)
	for _, insertion := range []bool{true, false} {
		insertion := insertion
		name := "insertion"
		if !insertion {
			name = "append"
		}
		b.Run(name, func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				scr := scheduler.NewScratch()
				bld := scr.Builder(inst)
				rank := scr.UpwardRank(inst)
				for _, t := range scr.TopoOrderByPriority(inst.Graph, rank) {
					v, start := bld.BestEFTNode(t, insertion)
					bld.Place(t, v, start)
				}
				makespan = bld.Makespan()
			}
			b.ReportMetric(makespan, "makespan")
		})
	}
}

// BenchmarkAblationRestarts quantifies PISA's restart count: the best
// ratio found with 1 vs 5 restarts at fixed per-restart budget.
func BenchmarkAblationRestarts(b *testing.B) {
	heft, cpop := mustSched(b, "HEFT"), mustSched(b, "CPoP")
	for _, restarts := range []int{1, 5} {
		restarts := restarts
		b.Run(fmt.Sprintf("restarts=%d", restarts), func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				opts := smallAnneal(100, restarts)
				opts.Seed = uint64(i + 1)
				res, err := experiments.SinglePISA(heft, cpop, opts)
				if err != nil {
					b.Fatal(err)
				}
				best = res.BestRatio
			}
			b.ReportMetric(best, "ratio")
		})
	}
}

// BenchmarkExactSolver measures the branch-and-bound optimum on PISA-size
// instances (the SMT substitute's inner loop).
func BenchmarkExactSolver(b *testing.B) {
	insts := make([]*graph.Instance, 8)
	r := rng.New(45)
	for i := range insts {
		insts[i] = datasets.InitialPISAInstance(r.Split())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.Solve(insts[i%len(insts)], exact.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPISAPerturbation measures the perturbation+evaluation inner
// loop in isolation.
func BenchmarkPISAPerturbation(b *testing.B) {
	heft, cpop := mustSched(b, "HEFT"), mustSched(b, "CPoP")
	for i := 0; i < b.N; i++ {
		opts := smallAnneal(10, 1)
		opts.Seed = uint64(i + 1)
		if _, err := experiments.SinglePISA(heft, cpop, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerializeRoundTrip measures instance JSON encode+decode.
func BenchmarkSerializeRoundTrip(b *testing.B) {
	inst := datasets.Fig1Instance()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := serialize.MarshalInstance(inst)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := serialize.UnmarshalInstance(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleValidation measures the Section II validity checker.
func BenchmarkScheduleValidation(b *testing.B) {
	r := rng.New(46)
	g, err := datasets.WorkflowRecipe("genome", r.Split())
	if err != nil {
		b.Fatal(err)
	}
	inst := graph.NewInstance(g, graph.NewNetwork(5))
	sch, err := scheduler.Schedule(mustSched(b, "HEFT"), inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := schedule.Validate(inst, sch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorExecute measures the discrete-event executor on a
// montage-workflow schedule.
func BenchmarkSimulatorExecute(b *testing.B) {
	r := rng.New(47)
	g, err := datasets.WorkflowRecipe("montage", r.Split())
	if err != nil {
		b.Fatal(err)
	}
	inst := graph.NewInstance(g, graph.NewNetwork(5))
	sch, err := scheduler.Schedule(mustSched(b, "HEFT"), inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Execute(inst, sch, sim.Strict); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorElasticContention measures the contention-aware
// elastic replay.
func BenchmarkSimulatorElasticContention(b *testing.B) {
	r := rng.New(48)
	g, err := datasets.WorkflowRecipe("genome", r.Split())
	if err != nil {
		b.Fatal(err)
	}
	net := graph.NewNetwork(5)
	inst := graph.NewInstance(g, net)
	datasets.SetHomogeneousCCR(inst, 1)
	sch, err := scheduler.Schedule(mustSched(b, "HEFT"), inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Execute(inst, sch, sim.Contended); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerScaling tracks the parallel speedup of the runner
// worker pool itself across worker counts on a fixed 32-cell sweep of
// real scheduling work (one shared HEFT value on a montage workflow, a
// fresh scratch per cell).
func BenchmarkRunnerScaling(b *testing.B) {
	r := rng.New(51)
	g, err := datasets.WorkflowRecipe("montage", r.Split())
	if err != nil {
		b.Fatal(err)
	}
	net := graph.NewNetwork(6)
	rr := r.Split()
	for v := range net.Speeds {
		net.Speeds[v] = rr.ClippedGaussian(1, 1.0/3, 0.2, 2)
	}
	inst := graph.NewInstance(g, net)
	datasets.SetHomogeneousCCR(inst, 1)
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			s, err := scheduler.New("HEFT")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				out, err := runner.Map(32, runner.Options{Workers: workers}, func(k int) (float64, error) {
					sch, err := scheduler.Schedule(s, inst)
					if err != nil {
						return 0, err
					}
					return sch.Makespan(), nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if out[0] <= 0 {
					b.Fatal("empty cell result")
				}
			}
		})
	}
}

// BenchmarkPairwiseParallelSpeedup compares sequential and parallel grid
// computation wall-clock (the b.N loop reports each variant's time).
func BenchmarkPairwiseParallelSpeedup(b *testing.B) {
	roster := []string{"HEFT", "CPoP", "MinMin", "MaxMin", "FastestNode", "MCT"}
	for _, workers := range []int{1, 0} {
		workers := workers
		name := "sequential"
		if workers == 0 {
			name = "gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runSweep(b, "pairwise", experiments.SweepParams{
					Schedulers: roster, Iters: 80, Restarts: 1, Seed: uint64(i + 1),
				}, runner.Options{Workers: workers})
			}
		})
	}
}

// BenchmarkWfcRoundTrip measures wfformat export + import of a workflow.
func BenchmarkWfcRoundTrip(b *testing.B) {
	r := rng.New(49)
	g, err := datasets.WorkflowRecipe("soykb", r.Split())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := wfc.FromTaskGraph("bench", g)
		data, err := doc.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		parsed, err := wfc.Parse(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := parsed.ToTaskGraph(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPortfolioSelection measures exhaustive k-subset selection at
// the paper's scale (15 schedulers, k = 3).
func BenchmarkPortfolioSelection(b *testing.B) {
	n := 15
	names := make([]string, n)
	ratios := make([][]float64, n)
	r := rng.New(50)
	for i := range ratios {
		names[i] = schedulers.ExperimentalNames[i]
		ratios[i] = make([]float64, n)
		for j := range ratios[i] {
			if i == j {
				ratios[i][j] = -1
			} else {
				ratios[i][j] = 1 + 4*r.Float64()
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SelectPortfolio(names, ratios, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRobustnessReplay measures the jitter-replay loop.
func BenchmarkRobustnessReplay(b *testing.B) {
	raw, err := serialize.MarshalInstance(datasets.Fig1Instance())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		runSweep(b, "robustness", experiments.SweepParams{
			Scheduler: "HEFT", InstanceRaw: raw, Sigma: 0.2, N: 20, Seed: uint64(i + 1),
		}, runner.Options{})
	}
}

// runSweep builds the named sweep and runs it under ro.
func runSweep(b *testing.B, name string, p experiments.SweepParams, ro runner.Options) {
	b.Helper()
	sw, err := experiments.NewSweep(name, p)
	if err != nil {
		b.Fatal(err)
	}
	if err := sw.Run(ro); err != nil {
		b.Fatal(err)
	}
}
