package experiments

import (
	"math"
	"testing"

	"saga/internal/core"
	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/runner"
	"saga/internal/scheduler"
	"saga/internal/schedulers"
	"saga/internal/stats"
)

func mustSched(t *testing.T, name string) scheduler.Scheduler {
	t.Helper()
	s, err := scheduler.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func smallAnneal(seed uint64) core.Options {
	o := core.DefaultOptions()
	o.MaxIters = 80
	o.Restarts = 1
	o.Seed = seed
	return o
}

func TestBenchmarkingSmall(t *testing.T) {
	scheds := []scheduler.Scheduler{mustSched(t, "HEFT"), mustSched(t, "CPoP"), mustSched(t, "FastestNode")}
	res, err := BenchmarkingRun([]string{"chains", "in_trees"}, scheds, 5, 1, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 2 || len(res.Schedulers) != 3 {
		t.Fatalf("grid shape %dx%d", len(res.Datasets), len(res.Schedulers))
	}
	grid := res.MaxGrid()
	for i, ds := range res.Datasets {
		for j, s := range res.Schedulers {
			v := grid[i][j]
			if v < 1-graph.Eps || math.IsNaN(v) {
				t.Fatalf("ratio %v < 1 for %s on %s", v, s, ds)
			}
			cell := res.Cells[ds][s]
			if cell.Mean > cell.Max+graph.Eps || cell.P75 > cell.Max+graph.Eps {
				t.Fatalf("summary inconsistency for %s/%s: %+v", ds, s, cell)
			}
		}
	}
}

func TestBenchmarkingBestSchedulerHasRatioOne(t *testing.T) {
	scheds := []scheduler.Scheduler{mustSched(t, "HEFT"), mustSched(t, "FastestNode")}
	inst := datasets.Fig1Instance()
	ratios, err := MakespanRatioAgainstBest(inst, scheds)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for _, v := range ratios {
		if v < best {
			best = v
		}
	}
	if !graph.ApproxEq(best, 1) {
		t.Fatalf("no scheduler achieved ratio 1: %v", ratios)
	}
}

func TestBenchmarkingUnknownDataset(t *testing.T) {
	if _, err := BenchmarkingRun([]string{"nope"}, schedulers.Experimental(), 1, 1, runner.Options{}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// benchmarkingPerCall is the benchmarking grid as it ran before the roster shared
// a scratch: every scheduler builds its own tables, ranks and builder
// through a one-shot scheduler.Schedule(s, inst). It is the oracle for
// TestBenchmarkingSharedScratchMatchesPerCall.
func benchmarkingPerCall(t *testing.T, datasetNames []string, scheds []scheduler.Scheduler, n int, seed uint64) map[string]map[string]BenchmarkCell {
	t.Helper()
	cells := map[string]map[string]BenchmarkCell{}
	for _, ds := range datasetNames {
		instances, err := datasets.Dataset(ds, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		ratios := make([][]float64, len(scheds))
		for _, inst := range instances {
			makespans := make([]float64, len(scheds))
			best := math.Inf(1)
			for i, s := range scheds {
				sch, err := scheduler.Schedule(s, inst)
				if err != nil {
					t.Fatal(err)
				}
				makespans[i] = sch.Makespan()
				best = math.Min(best, makespans[i])
			}
			if best == 0 {
				continue
			}
			for i, m := range makespans {
				ratios[i] = append(ratios[i], m/best)
			}
		}
		cells[ds] = map[string]BenchmarkCell{}
		for i, s := range scheds {
			cells[ds][s.Name()] = BenchmarkCell{
				Dataset: ds, Scheduler: s.Name(),
				Max: stats.Max(ratios[i]), Mean: stats.Mean(ratios[i]), P75: stats.Percentile(ratios[i], 75),
			}
		}
	}
	return cells
}

// TestBenchmarkingSharedScratchMatchesPerCall: one scratch prepared once
// per instance and reused by the whole roster — shared tables, shared
// rank memo, a builder and an output schedule every scheduler overwrites
// — must leave every cell bit-identical to a one-shot scheduler.Schedule
// call per scheduler, from one instance to the next and at the scale tier.
func TestBenchmarkingSharedScratchMatchesPerCall(t *testing.T) {
	names := []string{"chains", "in_trees", "montage", "scale_chains_1k"}
	const n, seed = 2, 5
	got, err := BenchmarkingRun(names, schedulers.Experimental(), n, seed, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := benchmarkingPerCall(t, names, schedulers.Experimental(), n, seed)
	for _, ds := range names {
		for _, s := range schedulers.ExperimentalNames {
			if g, w := got.Cells[ds][s], want[ds][s]; g != w {
				t.Errorf("%s/%s: shared scratch %+v, per-call %+v", ds, s, g, w)
			}
		}
	}

	inst, err := datasets.Dataset("scale_layered_1k", 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	ratios, err := MakespanRatioAgainstBest(inst[0], schedulers.Experimental())
	if err != nil {
		t.Fatal(err)
	}
	makespans := map[string]float64{}
	best := math.Inf(1)
	for _, s := range schedulers.Experimental() {
		sch, err := scheduler.Schedule(s, inst[0])
		if err != nil {
			t.Fatal(err)
		}
		makespans[s.Name()] = sch.Makespan()
		best = math.Min(best, sch.Makespan())
	}
	for name, m := range makespans {
		if ratios[name] != m/best {
			t.Errorf("MakespanRatioAgainstBest[%s] = %v, per-call %v", name, ratios[name], m/best)
		}
	}
}

func TestPairwisePISAShape(t *testing.T) {
	scheds := []scheduler.Scheduler{mustSched(t, "HEFT"), mustSched(t, "CPoP"), mustSched(t, "FastestNode")}
	res, err := PairwisePISARun(scheds, PairwiseOptions{Anneal: smallAnneal(1)}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(scheds)
	if len(res.Ratios) != n {
		t.Fatalf("rows = %d", len(res.Ratios))
	}
	for i := 0; i < n; i++ {
		if res.Ratios[i][i] != -1 {
			t.Fatalf("diagonal (%d,%d) = %v, want -1", i, i, res.Ratios[i][i])
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if res.Ratios[i][j] <= 0 {
				t.Fatalf("cell (%d,%d) = %v", i, j, res.Ratios[i][j])
			}
			if res.Instances[i][j] == nil {
				t.Fatalf("cell (%d,%d) missing instance", i, j)
			}
			if err := res.Instances[i][j].Validate(); err != nil {
				t.Fatalf("cell (%d,%d) instance invalid: %v", i, j, err)
			}
		}
	}
	// Worst row is the column max.
	for j := 0; j < n; j++ {
		max := 0.0
		for i := 0; i < n; i++ {
			if i != j && res.Ratios[i][j] > max {
				max = res.Ratios[i][j]
			}
		}
		if !graph.ApproxEq(res.Worst[j], max) {
			t.Fatalf("Worst[%d] = %v, want %v", j, res.Worst[j], max)
		}
	}
}

func TestPairwisePISARespectsConstraints(t *testing.T) {
	// Any pair involving FCP pins both speeds and links.
	scheds := []scheduler.Scheduler{mustSched(t, "FCP"), mustSched(t, "HEFT")}
	res, err := PairwisePISARun(scheds, PairwiseOptions{Anneal: smallAnneal(5)}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inst := res.Instances[1][0] // target FCP, base HEFT
	for _, s := range inst.Net.Speeds {
		if s != 1 {
			t.Fatalf("speed %v on FCP-pair instance, want 1", s)
		}
	}
	for u := 0; u < inst.Net.NumNodes(); u++ {
		for v := u + 1; v < inst.Net.NumNodes(); v++ {
			if inst.Net.Links[u][v] != 1 {
				t.Fatalf("link %v on FCP-pair instance, want 1", inst.Net.Links[u][v])
			}
		}
	}
}

func TestSinglePISADefaults(t *testing.T) {
	res, err := SinglePISA(mustSched(t, "HEFT"), mustSched(t, "FastestNode"), smallAnneal(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.BestRatio <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestFamilyFig7Direction(t *testing.T) {
	scheds := []scheduler.Scheduler{mustSched(t, "CPoP"), mustSched(t, "HEFT")}
	res, err := FamilyRun(datasets.Fig7Instance, scheds, 200, 1, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := stats.Mean(res.Makespans["CPoP"])
	h := stats.Mean(res.Makespans["HEFT"])
	if h <= c {
		t.Fatalf("Fig 7 family: HEFT mean %v should exceed CPoP mean %v", h, c)
	}
}

func TestFamilyFig8Direction(t *testing.T) {
	scheds := []scheduler.Scheduler{mustSched(t, "CPoP"), mustSched(t, "HEFT")}
	res, err := FamilyRun(datasets.Fig8Instance, scheds, 200, 1, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := stats.Mean(res.Makespans["CPoP"])
	h := stats.Mean(res.Makespans["HEFT"])
	if c <= h {
		t.Fatalf("Fig 8 family: CPoP mean %v should exceed HEFT mean %v", c, h)
	}
}

func TestFamilySummaries(t *testing.T) {
	scheds := []scheduler.Scheduler{mustSched(t, "HEFT")}
	res, err := FamilyRun(datasets.Fig7Instance, scheds, 50, 3, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summaries["HEFT"]
	if s.N != 50 || s.Min > s.Median || s.Median > s.Max {
		t.Fatalf("summary inconsistent: %+v", s)
	}
}

func TestFig3NetworkModification(t *testing.T) {
	heft, cpop := mustSched(t, "HEFT"), mustSched(t, "CPoP")
	orig := datasets.Fig3Instance(false)
	mod := datasets.Fig3Instance(true)
	ho, _ := scheduler.Schedule(heft, orig)
	co, _ := scheduler.Schedule(cpop, orig)
	hm, _ := scheduler.Schedule(heft, mod)
	cm, _ := scheduler.Schedule(cpop, mod)
	// Original network: HEFT at least as good as CPoP.
	if ho.Makespan() > co.Makespan()+graph.Eps {
		t.Fatalf("original: HEFT %v worse than CPoP %v", ho.Makespan(), co.Makespan())
	}
	// Modified network: HEFT strictly worse than CPoP — the paper's
	// point that a small network change flips the ordering.
	if hm.Makespan() <= cm.Makespan()+graph.Eps {
		t.Fatalf("modified: HEFT %v not worse than CPoP %v", hm.Makespan(), cm.Makespan())
	}
	// CPoP unaffected by the link change (it stays serial).
	if !graph.ApproxEq(co.Makespan(), cm.Makespan()) {
		t.Fatalf("CPoP changed: %v vs %v", co.Makespan(), cm.Makespan())
	}
}

func TestFig5CaseStudy(t *testing.T) {
	heft, cpop := mustSched(t, "HEFT"), mustSched(t, "CPoP")
	inst := datasets.Fig5Instance()
	h, _ := scheduler.Schedule(heft, inst)
	c, _ := scheduler.Schedule(cpop, inst)
	ratio := h.Makespan() / c.Makespan()
	// Paper: HEFT ≈ 1.55x worse than CPoP.
	if math.Abs(ratio-1.55) > 0.02 {
		t.Fatalf("Fig 5 ratio = %v, want ≈1.55", ratio)
	}
}

func TestFig6CaseStudy(t *testing.T) {
	heft, cpop := mustSched(t, "HEFT"), mustSched(t, "CPoP")
	inst := datasets.Fig6Instance()
	h, _ := scheduler.Schedule(heft, inst)
	c, _ := scheduler.Schedule(cpop, inst)
	ratio := c.Makespan() / h.Makespan()
	// Paper: CPoP ≈ 2.83x worse than HEFT.
	if math.Abs(ratio-2.83) > 0.02 {
		t.Fatalf("Fig 6 ratio = %v, want ≈2.83", ratio)
	}
}

func TestFig1Example(t *testing.T) {
	inst := datasets.Fig1Instance()
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range schedulers.Experimental() {
		if _, err := scheduler.Schedule(s, inst); err != nil {
			t.Fatalf("%s failed on Fig 1: %v", s.Name(), err)
		}
	}
}

func TestAppSpecificSmall(t *testing.T) {
	scheds := []scheduler.Scheduler{mustSched(t, "HEFT"), mustSched(t, "CPoP"), mustSched(t, "FastestNode")}
	ao := smallAnneal(3)
	ao.MaxIters = 40
	res, err := AppSpecificRun(scheds, AppSpecificOptions{
		Workflow:           "blast",
		CCR:                1.0,
		BenchmarkInstances: 3,
		Anneal:             ao,
	}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Benchmark) != 3 {
		t.Fatalf("benchmark row size %d", len(res.Benchmark))
	}
	foundOne := false
	for _, v := range res.Benchmark {
		if v < 1-graph.Eps {
			t.Fatalf("benchmark ratio %v < 1", v)
		}
		if graph.ApproxEq(v, 1) {
			foundOne = true
		}
	}
	if !foundOne {
		t.Fatal("no scheduler ever achieved the best makespan")
	}
	for i := range res.Ratios {
		for j := range res.Ratios[i] {
			if i == j {
				continue
			}
			inst := res.Instances[i][j]
			if inst == nil {
				t.Fatalf("missing instance at (%d,%d)", i, j)
			}
			if err := inst.Validate(); err != nil {
				t.Fatal(err)
			}
			// Structure-preserving: blast keeps its single source and
			// two sinks (Fig 9b).
			if len(inst.Graph.Sources()) != 1 || len(inst.Graph.Sinks()) != 2 {
				t.Fatalf("app-specific search broke blast's topology")
			}
			// CCR-pinned homogeneous links survive.
			l := inst.Net.Links[0][1]
			for u := 0; u < inst.Net.NumNodes(); u++ {
				for v := u + 1; v < inst.Net.NumNodes(); v++ {
					if inst.Net.Links[u][v] != l {
						t.Fatal("links no longer homogeneous after app-specific PISA")
					}
				}
			}
		}
	}
}

func TestAppSpecificUnknownWorkflow(t *testing.T) {
	// appInstance panics on bad recipes; the runner reports the panic as
	// the cell's error.
	_, err := AppSpecificRun([]scheduler.Scheduler{mustSched(t, "HEFT"), mustSched(t, "CPoP")},
		AppSpecificOptions{Workflow: "bogus", CCR: 1, BenchmarkInstances: 1, Anneal: smallAnneal(1)}, runner.Options{})
	if err == nil {
		t.Fatal("unknown workflow accepted")
	}
}

func TestCCRLevelsMatchPaper(t *testing.T) {
	want := []float64{0.2, 0.5, 1, 2, 5}
	if len(CCRLevels) != len(want) {
		t.Fatal("CCR levels changed")
	}
	for i, v := range want {
		if CCRLevels[i] != v {
			t.Fatalf("CCRLevels[%d] = %v, want %v", i, CCRLevels[i], v)
		}
	}
}
