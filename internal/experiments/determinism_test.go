package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"saga/internal/core"
	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/runner"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	"saga/internal/schedulers"
	"saga/internal/serialize"
	"saga/internal/sim"
	"saga/internal/stats"
)

// workerCounts is the grid every determinism test sweeps: strictly
// sequential, a fixed small pool, and whatever the host offers. Each
// driver's result must be bit-identical (float ==, no tolerance) to its
// sequential oracle at every count.
var workerCounts = []int{1, 4, 0 /* GOMAXPROCS */}

func workerLabel(w int) string {
	if w == 0 {
		return "gomaxprocs"
	}
	return string(rune('0' + w))
}

// configuredWBA is WBA away from its registry defaults (seed 0x57BA,
// 10 rounds). The determinism rosters below run it so that a driver
// which swapped in scheduler.New(s.Name()) for the value it was given
// would disagree with its sequential oracle.
func configuredWBA() scheduler.Scheduler { return schedulers.WBA{Seed: 7, Rounds: 3, Alpha: 0.5} }

// TestBenchmarkingDeterminism shares each scheduler value across the
// workers' scratches. FCP and FLB ride along because FLB keeps a
// per-construction candidate memo in the worker's Scratch; under `make
// test-race` a memo on the shared value would race here. The second
// grid is four datasets at three instances under seed 7, and three
// workers join the panel.
func TestBenchmarkingDeterminism(t *testing.T) {
	grids := []struct {
		names  []string
		scheds []scheduler.Scheduler
		n      int
		seed   uint64
		seq    *BenchmarkResult
	}{
		{names: []string{"chains", "in_trees", "out_trees", "etl", "cycles"}, n: 4, seed: 11, scheds: []scheduler.Scheduler{
			mustSched(t, "HEFT"), mustSched(t, "CPoP"), configuredWBA(), mustSched(t, "FastestNode"),
			mustSched(t, "FCP"), mustSched(t, "FLB"),
		}},
		{names: []string{"chains", "in_trees", "out_trees", "etl"}, n: 3, seed: 7, scheds: []scheduler.Scheduler{
			mustSched(t, "HEFT"), mustSched(t, "CPoP"), mustSched(t, "FastestNode"),
		}},
	}
	for g := range grids {
		var err error
		if grids[g].seq, err = benchmarking(grids[g].names, grids[g].scheds, grids[g].n, grids[g].seed); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range append(workerCounts, 3) {
		t.Run("workers="+workerLabel(w), func(t *testing.T) {
			for _, g := range grids {
				par, err := BenchmarkingRun(g.names, g.scheds, g.n, g.seed, runner.Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				for _, ds := range g.names {
					for _, s := range g.seq.Schedulers {
						a, b := g.seq.Cells[ds][s], par.Cells[ds][s]
						if a != b {
							t.Fatalf("seed %d %s/%s: sequential %+v, parallel %+v", g.seed, ds, s, a, b)
						}
					}
				}
			}
		})
	}
}

// TestPairwisePISADeterminism holds the parallel grid to the sequential
// one on every cell: ratio, adversarial instance and column worst. The
// second roster is HEFT against FastestNode at 40 iterations.
func TestPairwisePISADeterminism(t *testing.T) {
	grids := []struct {
		scheds []scheduler.Scheduler
		anneal core.Options
		seq    *PairwiseResult
	}{
		{scheds: []scheduler.Scheduler{mustSched(t, "HEFT"), mustSched(t, "CPoP"), mustSched(t, "MinMin")},
			anneal: smallAnneal(60)},
		{scheds: []scheduler.Scheduler{mustSched(t, "HEFT"), mustSched(t, "FastestNode")},
			anneal: smallAnneal(40)},
	}
	for g := range grids {
		var err error
		if grids[g].seq, err = pairwisePISA(grids[g].scheds, grids[g].anneal); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workerCounts {
		t.Run("workers="+workerLabel(w), func(t *testing.T) {
			for _, g := range grids {
				par, err := pairwisePISARun(g.scheds, g.anneal, runner.Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				samePairwise(t, "parallel", g.seq, par)
			}
		})
	}
}

func TestFamilyDeterminism(t *testing.T) {
	// Ensemble is a pointer with a member slice: every worker shares the
	// one value, which `make test-race` checks at 4 and GOMAXPROCS
	// workers. Fig 8's family, not Fig 7's: on Fig 7's four-task
	// homogeneous forks every WBA configuration finds the same schedule.
	scheds := []scheduler.Scheduler{mustSched(t, "CPoP"), mustSched(t, "HEFT"), configuredWBA(), mustSched(t, "Ensemble")}
	seq, err := family(datasets.Fig8Instance, scheds, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		t.Run("workers="+workerLabel(w), func(t *testing.T) {
			par, err := familyRun(datasets.Fig8Instance, scheds, 40, 9, runner.Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			sameFamily(t, "parallel", seq, par)
		})
	}
}

func TestRobustnessDeterminism(t *testing.T) {
	inst := datasets.Fig1Instance()
	s := configuredWBA()
	seq, err := robustness(inst, s, 0.2, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		t.Run("workers="+workerLabel(w), func(t *testing.T) {
			par, err := robustnessRun(inst, s, 0.2, 30, 5, runner.Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if *seq != *par {
				t.Fatalf("sequential %+v, parallel %+v", seq, par)
			}
		})
	}
}

func TestAppSpecificDeterminism(t *testing.T) {
	scheds := []scheduler.Scheduler{
		mustSched(t, "HEFT"), mustSched(t, "CPoP"), mustSched(t, "FastestNode"),
	}
	opts := appSpecificOptions{
		Workflow:           "blast",
		CCR:                1.0,
		BenchmarkInstances: 4,
		Anneal:             smallAnneal(3),
	}
	opts.Anneal.MaxIters = 40
	seq, err := appSpecific(scheds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		t.Run("workers="+workerLabel(w), func(t *testing.T) {
			par, err := appSpecificRun(scheds, opts, runner.Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			sameAppSpecific(t, "parallel", seq, par)
		})
	}
}

func TestSelectPortfolioDeterminism(t *testing.T) {
	// A synthetic 15×15 grid with deliberate near-ties exercises the tie
	// order: SelectPortfolio's lexicographic enumeration must agree with
	// the first-member merge of the oracle at every worker count.
	n := 15
	names := make([]string, n)
	ratios := make([][]float64, n)
	r := rng.New(77)
	for i := range ratios {
		names[i] = string(rune('A' + i))
		ratios[i] = make([]float64, n)
		for j := range ratios[i] {
			if i == j {
				ratios[i][j] = -1
			} else {
				// Coarse quantization forces equal-score subsets.
				ratios[i][j] = 1 + float64(r.Intn(4))
			}
		}
	}
	seq, err := SelectPortfolio(names, ratios, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		t.Run("workers="+workerLabel(w), func(t *testing.T) {
			par, err := selectPortfolioParallel(names, ratios, 3, w)
			if err != nil {
				t.Fatal(err)
			}
			if par.WorstRatio != seq.WorstRatio {
				t.Fatalf("worst ratio: sequential %v, parallel %v", seq.WorstRatio, par.WorstRatio)
			}
			if !slices.Equal(par.Members, seq.Members) {
				t.Fatalf("members: sequential %v, parallel %v", seq.Members, par.Members)
			}
		})
	}
}

// TestSelectPortfolioParallelValidation holds the parallel oracle to the
// same input checks TestSelectPortfolioErrors makes of SelectPortfolio.
func TestSelectPortfolioParallelValidation(t *testing.T) {
	if _, err := selectPortfolioParallel([]string{"a"}, [][]float64{{-1}}, 2, 0); err == nil {
		t.Fatal("oversized portfolio accepted")
	}
	if _, err := selectPortfolioParallel([]string{"a", "b"}, [][]float64{{-1, 1}}, 1, 0); err == nil {
		t.Fatal("ragged ratio grid accepted")
	}
}

// samePairwise requires got to equal the sequential want on every cell:
// ratio, adversarial instance (through its serialization) and column
// worst.
func samePairwise(t *testing.T, label string, want, got *PairwiseResult) {
	t.Helper()
	for i := range want.Ratios {
		for j := range want.Ratios[i] {
			if want.Ratios[i][j] != got.Ratios[i][j] {
				t.Fatalf("cell (%d,%d): sequential %v, %s %v", i, j, want.Ratios[i][j], label, got.Ratios[i][j])
			}
			if i != j && string(marshal(t, want.Instances[i][j])) != string(marshal(t, got.Instances[i][j])) {
				t.Fatalf("cell (%d,%d): adversarial instances differ", i, j)
			}
		}
	}
	for j := range want.Worst {
		if want.Worst[j] != got.Worst[j] {
			t.Fatalf("Worst[%d]: sequential %v, %s %v", j, want.Worst[j], label, got.Worst[j])
		}
	}
}

func marshal(t *testing.T, inst *graph.Instance) []byte {
	t.Helper()
	data, err := serialize.MarshalInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sameFamily requires every scheduler's samples and summary to match.
func sameFamily(t *testing.T, label string, want, got *FamilyResult) {
	t.Helper()
	for _, name := range want.Schedulers {
		if len(got.Makespans[name]) != len(want.Makespans[name]) {
			t.Fatalf("%s: %d samples, want %d", name, len(got.Makespans[name]), len(want.Makespans[name]))
		}
		for i := range want.Makespans[name] {
			if want.Makespans[name][i] != got.Makespans[name][i] {
				t.Fatalf("%s sample %d: sequential %v, %s %v", name, i, want.Makespans[name][i], label, got.Makespans[name][i])
			}
		}
		if want.Summaries[name] != got.Summaries[name] {
			t.Fatalf("%s summary: sequential %+v, %s %+v", name, want.Summaries[name], label, got.Summaries[name])
		}
	}
}

// sameAppSpecific requires the benchmarking phase and every PISA cell to
// match.
func sameAppSpecific(t *testing.T, label string, want, got *AppSpecificResult) {
	t.Helper()
	for j := range want.Benchmark {
		if want.Benchmark[j] != got.Benchmark[j] {
			t.Fatalf("Benchmark[%d]: sequential %v, %s %v", j, want.Benchmark[j], label, got.Benchmark[j])
		}
	}
	for i := range want.Ratios {
		for j := range want.Ratios[i] {
			if want.Ratios[i][j] != got.Ratios[i][j] {
				t.Fatalf("cell (%d,%d): sequential %v, %s %v", i, j, want.Ratios[i][j], label, got.Ratios[i][j])
			}
		}
	}
}

// --- sequential oracles ------------------------------------------------
//
// Each loop below is the sequential driver its XRun replaced, kept
// verbatim so the suites above compare the production entry points with
// an implementation that shares none of their runner wiring. The last,
// selectPortfolioParallel, is the other way round: the parallel selector
// SelectPortfolio's sequential enumeration replaced.

// benchmarking is the sequential Fig 2 loop BenchmarkingRun replaced:
// every dataset in turn through one shared scratch and one schedule.
func benchmarking(datasetNames []string, scheds []scheduler.Scheduler, n int, seed uint64) (*BenchmarkResult, error) {
	res := &BenchmarkResult{
		Datasets: datasetNames,
		Cells:    map[string]map[string]BenchmarkCell{},
	}
	for _, s := range scheds {
		res.Schedulers = append(res.Schedulers, s.Name())
	}
	scr := scheduler.NewScratch()
	var out schedule.Schedule
	makespans := make([]float64, len(scheds))
	for _, ds := range datasetNames {
		instances, err := datasets.Dataset(ds, n, seed)
		if err != nil {
			return nil, err
		}
		ratios := make([][]float64, len(scheds))
		for _, inst := range instances {
			best, err := rosterMakespans(inst, scheds, scr, &out, makespans)
			if err != nil {
				return nil, fmt.Errorf("experiments: dataset %s: %w", ds, err)
			}
			if best == 0 {
				continue
			}
			for i, m := range makespans {
				ratios[i] = append(ratios[i], m/best)
			}
		}
		res.Cells[ds] = map[string]BenchmarkCell{}
		for i, s := range scheds {
			res.Cells[ds][s.Name()] = BenchmarkCell{
				Dataset:   ds,
				Scheduler: s.Name(),
				Max:       stats.Max(ratios[i]),
				Mean:      stats.Mean(ratios[i]),
				P75:       stats.Percentile(ratios[i], 75),
			}
		}
	}
	return res, nil
}

// pairwisePISA is the sequential Fig 4 loop: seeds count up from
// anneal.Seed in row-major off-diagonal order, the sequence
// runner.CellSeed reproduces per cell.
func pairwisePISA(scheds []scheduler.Scheduler, anneal core.Options) (*PairwiseResult, error) {
	n := len(scheds)
	res := &PairwiseResult{
		Ratios:    make([][]float64, n),
		Worst:     make([]float64, n),
		Instances: make([][]*graph.Instance, n),
	}
	for _, s := range scheds {
		res.Schedulers = append(res.Schedulers, s.Name())
	}
	for i := range res.Ratios {
		res.Ratios[i] = make([]float64, n)
		res.Instances[i] = make([]*graph.Instance, n)
		for j := range res.Ratios[i] {
			res.Ratios[i][j] = -1
		}
	}

	pairSeed := anneal.Seed
	for i, base := range scheds { // row: base scheduler
		for j, target := range scheds { // column: analyzed scheduler
			if i == j {
				continue
			}
			pairSeed++
			ao := anneal
			ao.Seed = pairSeed
			ao.InitialInstance = datasets.InitialPISAInstance
			ao.Perturb = pairPerturb(target, base)
			r, err := core.Run(target, base, ao)
			if err != nil {
				return nil, err
			}
			res.Ratios[i][j] = r.BestRatio
			res.Instances[i][j] = r.Best
			if r.BestRatio > res.Worst[j] {
				res.Worst[j] = r.BestRatio
			}
		}
	}
	return res, nil
}

// family is the sequential Figs 7/8 sampling loop, drawing each
// instance's sub-stream lazily and scheduling through the one-shot
// scheduler.Schedule.
func family(gen func(*rng.RNG) *graph.Instance, scheds []scheduler.Scheduler, n int, seed uint64) (*FamilyResult, error) {
	res := &FamilyResult{
		Makespans: map[string][]float64{},
		Summaries: map[string]stats.Summary{},
	}
	for _, s := range scheds {
		res.Schedulers = append(res.Schedulers, s.Name())
	}
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		inst := gen(r.Split())
		for _, s := range scheds {
			sch, err := scheduler.Schedule(s, inst)
			if err != nil {
				return nil, err
			}
			res.Makespans[s.Name()] = append(res.Makespans[s.Name()], sch.Makespan())
		}
	}
	for _, s := range scheds {
		res.Summaries[s.Name()] = stats.Summarize(res.Makespans[s.Name()])
	}
	return res, nil
}

// robustness is the sequential jitter loop, re-planning through the
// one-shot scheduler.Schedule.
func robustness(inst *graph.Instance, s scheduler.Scheduler, sigma float64, n int, seed uint64) (*RobustnessResult, error) {
	nominal, err := scheduler.Schedule(s, inst)
	if err != nil {
		return nil, err
	}
	res := &RobustnessResult{Scheduler: s.Name(), Nominal: nominal.Makespan()}
	r := rng.New(seed)
	var static, adaptive []float64
	for i := 0; i < n; i++ {
		j := jitter(inst, sigma, r.Split())
		replayed, err := sim.Execute(j, nominal, sim.Elastic)
		if err != nil {
			return nil, err
		}
		static = append(static, replayed.Makespan)
		re, err := scheduler.Schedule(s, j)
		if err != nil {
			return nil, err
		}
		adaptive = append(adaptive, re.Makespan())
	}
	res.Static = stats.Summarize(static)
	res.Adaptive = stats.Summarize(adaptive)
	return res, nil
}

// appSpecific is the sequential Section VII block: benchmarking row and
// observed weight ranges first, then the structure-preserving PISA grid.
func appSpecific(scheds []scheduler.Scheduler, opts appSpecificOptions) (*AppSpecificResult, error) {
	n := len(scheds)
	res := &AppSpecificResult{
		Workflow:  opts.Workflow,
		CCR:       opts.CCR,
		Benchmark: make([]float64, n),
		Ratios:    make([][]float64, n),
		Instances: make([][]*graph.Instance, n),
	}
	for _, s := range scheds {
		res.Schedulers = append(res.Schedulers, s.Name())
	}
	for i := range res.Ratios {
		res.Ratios[i] = make([]float64, n)
		res.Instances[i] = make([]*graph.Instance, n)
		for j := range res.Ratios[i] {
			res.Ratios[i][j] = -1
		}
	}

	// Benchmarking row + observed weight ranges for the perturb space.
	taskRange := [2]float64{math.Inf(1), math.Inf(-1)}
	depRange := [2]float64{math.Inf(1), math.Inf(-1)}
	speedRange := [2]float64{math.Inf(1), math.Inf(-1)}
	r := rng.New(opts.Anneal.Seed ^ 0xA99)
	for i := 0; i < opts.BenchmarkInstances; i++ {
		inst := appInstance(opts.Workflow, opts.CCR, r.Split())
		for _, t := range inst.Graph.Tasks {
			taskRange[0] = math.Min(taskRange[0], t.Cost)
			taskRange[1] = math.Max(taskRange[1], t.Cost)
		}
		for _, succ := range inst.Graph.Succ {
			for _, d := range succ {
				depRange[0] = math.Min(depRange[0], d.Cost)
				depRange[1] = math.Max(depRange[1], d.Cost)
			}
		}
		for _, s := range inst.Net.Speeds {
			speedRange[0] = math.Min(speedRange[0], s)
			speedRange[1] = math.Max(speedRange[1], s)
		}
		ratios, err := MakespanRatioAgainstBest(inst, scheds)
		if err != nil {
			return nil, err
		}
		for j, s := range scheds {
			if v := ratios[s.Name()]; v > res.Benchmark[j] {
				res.Benchmark[j] = v
			}
		}
	}

	// PISA grid with the application-specific PERTURB implementation.
	pairSeed := opts.Anneal.Seed
	for i, base := range scheds {
		for j, target := range scheds {
			if i == j {
				continue
			}
			pairSeed++
			ao := opts.Anneal
			ao.Seed = pairSeed
			ao.InitialInstance = func(rr *rng.RNG) *graph.Instance {
				return appInstance(opts.Workflow, opts.CCR, rr)
			}
			ao.Perturb = core.PerturbOptions{
				Step:              0.1,
				TaskCost:          taskRange,
				DepCost:           depRange,
				Speed:             speedRange,
				FixLinks:          true,
				FixStructure:      true,
				KeepPinnedWeights: true,
			}
			pr, err := core.Run(target, base, ao)
			if err != nil {
				return nil, err
			}
			res.Ratios[i][j] = pr.BestRatio
			res.Instances[i][j] = pr.Best
		}
	}
	return res, nil
}

// selectPortfolioParallel enumerates subsets with up to workers
// goroutines (0 = GOMAXPROCS), one cell per smallest portfolio member,
// merged in first-member order with the strict-improvement rule — an
// independent statement of SelectPortfolio's lexicographic tie order.
func selectPortfolioParallel(schedulers []string, ratios [][]float64, k, workers int) (*PortfolioResult, error) {
	n := len(schedulers)
	if k <= 0 || k > n {
		return nil, fmt.Errorf("experiments: portfolio size %d outside [1, %d]", k, n)
	}
	if len(ratios) != n {
		return nil, fmt.Errorf("experiments: ratio grid has %d rows for %d schedulers", len(ratios), n)
	}
	type candidate struct {
		Members []int
		Worst   float64
	}
	cells, err := runner.Map(n-k+1, runner.Options{Workers: workers}, func(j0 int) (candidate, error) {
		best := candidate{Worst: math.Inf(1)}
		subset := make([]int, k)
		subset[0] = j0
		var recurse func(start, depth int)
		recurse = func(start, depth int) {
			if depth == k {
				if worst := subsetWorstRatio(ratios, subset); worst < best.Worst {
					best.Members = append([]int(nil), subset...)
					best.Worst = worst
				}
				return
			}
			for j := start; j <= n-(k-depth); j++ {
				subset[depth] = j
				recurse(j+1, depth+1)
			}
		}
		recurse(j0+1, 1)
		return best, nil
	})
	if err != nil {
		return nil, err
	}
	best := candidate{Worst: math.Inf(1)}
	for _, c := range cells {
		if c.Worst < best.Worst {
			best = c
		}
	}
	res := &PortfolioResult{WorstRatio: best.Worst}
	res.Members = make([]string, k)
	for i, j := range best.Members {
		res.Members[i] = schedulers[j]
	}
	sort.Strings(res.Members)
	return res, nil
}
