package experiments

import (
	"testing"

	"saga/internal/datasets"
	"saga/internal/rng"
	"saga/internal/runner"
	"saga/internal/scheduler"
	"saga/internal/serialize"
)

// workerCounts is the grid every determinism test sweeps: strictly
// sequential, a fixed small pool, and whatever the host offers. Each
// parallel result must be bit-identical (float ==, no tolerance) to the
// sequential reference driver.
var workerCounts = []int{1, 4, 0 /* GOMAXPROCS */}

func workerLabel(w int) string {
	if w == 0 {
		return "gomaxprocs"
	}
	return string(rune('0' + w))
}

func TestBenchmarkingDeterminism(t *testing.T) {
	scheds := []scheduler.Scheduler{
		mustSched(t, "HEFT"), mustSched(t, "CPoP"), mustSched(t, "WBA"), mustSched(t, "FastestNode"),
	}
	names := []string{"chains", "in_trees", "out_trees", "etl", "cycles"}
	seq, err := Benchmarking(names, scheds, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		t.Run("workers="+workerLabel(w), func(t *testing.T) {
			par, err := BenchmarkingRun(names, scheds, 4, 11, runner.Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			for _, ds := range names {
				for _, s := range seq.Schedulers {
					a, b := seq.Cells[ds][s], par.Cells[ds][s]
					if a != b {
						t.Fatalf("%s/%s: sequential %+v, parallel %+v", ds, s, a, b)
					}
				}
			}
		})
	}
}

func TestPairwisePISADeterminism(t *testing.T) {
	scheds := []scheduler.Scheduler{
		mustSched(t, "HEFT"), mustSched(t, "CPoP"), mustSched(t, "MinMin"),
	}
	opts := PairwiseOptions{Anneal: smallAnneal(60)}
	seq, err := PairwisePISA(scheds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		t.Run("workers="+workerLabel(w), func(t *testing.T) {
			par, err := PairwisePISARun(scheds, opts, runner.Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			for i := range seq.Ratios {
				for j := range seq.Ratios[i] {
					if seq.Ratios[i][j] != par.Ratios[i][j] {
						t.Fatalf("cell (%d,%d): sequential %v, parallel %v",
							i, j, seq.Ratios[i][j], par.Ratios[i][j])
					}
					if i == j {
						continue
					}
					// The adversarial instances themselves must survive
					// the parallel path (and its serialize round trip)
					// bit-for-bit.
					a, err := serialize.MarshalInstance(seq.Instances[i][j])
					if err != nil {
						t.Fatal(err)
					}
					b, err := serialize.MarshalInstance(par.Instances[i][j])
					if err != nil {
						t.Fatal(err)
					}
					if string(a) != string(b) {
						t.Fatalf("cell (%d,%d): adversarial instances differ", i, j)
					}
				}
			}
			for j := range seq.Worst {
				if seq.Worst[j] != par.Worst[j] {
					t.Fatalf("Worst[%d]: sequential %v, parallel %v", j, seq.Worst[j], par.Worst[j])
				}
			}
		})
	}
}

func TestFamilyDeterminism(t *testing.T) {
	scheds := []scheduler.Scheduler{mustSched(t, "CPoP"), mustSched(t, "HEFT"), mustSched(t, "WBA")}
	seq, err := Family(datasets.Fig7Instance, scheds, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		t.Run("workers="+workerLabel(w), func(t *testing.T) {
			par, err := FamilyRun(datasets.Fig7Instance, scheds, 40, 9, runner.Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range seq.Schedulers {
				if len(par.Makespans[name]) != len(seq.Makespans[name]) {
					t.Fatalf("%s: %d samples, want %d", name, len(par.Makespans[name]), len(seq.Makespans[name]))
				}
				for i := range seq.Makespans[name] {
					if seq.Makespans[name][i] != par.Makespans[name][i] {
						t.Fatalf("%s sample %d: sequential %v, parallel %v",
							name, i, seq.Makespans[name][i], par.Makespans[name][i])
					}
				}
				if seq.Summaries[name] != par.Summaries[name] {
					t.Fatalf("%s summary: sequential %+v, parallel %+v",
						name, seq.Summaries[name], par.Summaries[name])
				}
			}
		})
	}
}

func TestRobustnessDeterminism(t *testing.T) {
	inst := datasets.Fig1Instance()
	s := mustSched(t, "HEFT")
	seq, err := Robustness(inst, s, 0.2, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		t.Run("workers="+workerLabel(w), func(t *testing.T) {
			par, err := RobustnessRun(inst, s, 0.2, 30, 5, runner.Options{Workers: w})
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
	opts := AppSpecificOptions{
		Workflow:           "blast",
		CCR:                1.0,
		BenchmarkInstances: 4,
		Anneal:             smallAnneal(3),
	}
	opts.Anneal.MaxIters = 40
	seq, err := AppSpecific(scheds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		t.Run("workers="+workerLabel(w), func(t *testing.T) {
			par, err := AppSpecificRun(scheds, opts, runner.Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			for j := range seq.Benchmark {
				if seq.Benchmark[j] != par.Benchmark[j] {
					t.Fatalf("Benchmark[%d]: sequential %v, parallel %v",
						j, seq.Benchmark[j], par.Benchmark[j])
				}
			}
			for i := range seq.Ratios {
				for j := range seq.Ratios[i] {
					if seq.Ratios[i][j] != par.Ratios[i][j] {
						t.Fatalf("cell (%d,%d): sequential %v, parallel %v",
							i, j, seq.Ratios[i][j], par.Ratios[i][j])
					}
				}
			}
		})
	}
}

func TestSelectPortfolioDeterminism(t *testing.T) {
	// A synthetic 15×15 grid with deliberate near-ties exercises the
	// merge order of the parallel subset enumeration.
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
			par, err := SelectPortfolioParallel(names, ratios, 3, w)
			if err != nil {
				t.Fatal(err)
			}
			if par.WorstRatio != seq.WorstRatio {
				t.Fatalf("worst ratio: sequential %v, parallel %v", seq.WorstRatio, par.WorstRatio)
			}
			if len(par.Members) != len(seq.Members) {
				t.Fatalf("members: sequential %v, parallel %v", seq.Members, par.Members)
			}
			for i := range seq.Members {
				if par.Members[i] != seq.Members[i] {
					t.Fatalf("members: sequential %v, parallel %v", seq.Members, par.Members)
				}
			}
		})
	}
}

func TestSelectPortfolioParallelValidation(t *testing.T) {
	if _, err := SelectPortfolioParallel([]string{"a"}, [][]float64{{-1}}, 2, 0); err == nil {
		t.Fatal("oversized portfolio accepted")
	}
	if _, err := SelectPortfolioParallel([]string{"a", "b"}, [][]float64{{-1, 1}}, 1, 0); err == nil {
		t.Fatal("ragged ratio grid accepted")
	}
}

func TestParallelDriversRequireRegistrySchedulers(t *testing.T) {
	custom := scheduler.Func{SchedName: "not-registered", Fn: nil}
	if _, err := FamilyRun(datasets.Fig7Instance, []scheduler.Scheduler{custom}, 2, 1, runner.Options{Workers: 2}); err == nil {
		t.Fatal("unregistered scheduler accepted by FamilyRun")
	}
	if _, err := BenchmarkingRun([]string{"chains"}, []scheduler.Scheduler{custom}, 1, 1, runner.Options{Workers: 2}); err == nil {
		t.Fatal("unregistered scheduler accepted by BenchmarkingRun")
	}
}
