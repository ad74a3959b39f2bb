package experiments

import (
	"testing"

	"saga/internal/runner"
	"saga/internal/scheduler"
)

func TestPairwisePISAParallelMatchesSequential(t *testing.T) {
	scheds := []scheduler.Scheduler{
		mustSched(t, "HEFT"), mustSched(t, "CPoP"), mustSched(t, "MinMin"),
	}
	opts := PairwiseOptions{Anneal: smallAnneal(60)}
	seq, err := PairwisePISA(scheds, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := PairwisePISARun(scheds, opts, runner.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Ratios {
		for j := range seq.Ratios[i] {
			if seq.Ratios[i][j] != par.Ratios[i][j] {
				t.Fatalf("cell (%d,%d): sequential %v, parallel %v",
					i, j, seq.Ratios[i][j], par.Ratios[i][j])
			}
		}
	}
	for j := range seq.Worst {
		if seq.Worst[j] != par.Worst[j] {
			t.Fatalf("Worst[%d]: sequential %v, parallel %v", j, seq.Worst[j], par.Worst[j])
		}
	}
}

func TestPairwisePISAParallelWorkerCounts(t *testing.T) {
	scheds := []scheduler.Scheduler{mustSched(t, "HEFT"), mustSched(t, "FastestNode")}
	opts := PairwiseOptions{Anneal: smallAnneal(40)}
	a, err := PairwisePISARun(scheds, opts, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PairwisePISARun(scheds, opts, runner.Options{Workers: 0}) // GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	if a.Ratios[0][1] != b.Ratios[0][1] || a.Ratios[1][0] != b.Ratios[1][0] {
		t.Fatal("worker count changed results")
	}
}

func TestBenchmarkingParallelMatchesSequential(t *testing.T) {
	scheds := []scheduler.Scheduler{
		mustSched(t, "HEFT"), mustSched(t, "CPoP"), mustSched(t, "FastestNode"),
	}
	names := []string{"chains", "in_trees", "out_trees", "etl"}
	seq, err := Benchmarking(names, scheds, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BenchmarkingRun(names, scheds, 3, 7, runner.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range names {
		for _, s := range seq.Schedulers {
			a, b := seq.Cells[ds][s], par.Cells[ds][s]
			if a.Max != b.Max || a.Mean != b.Mean {
				t.Fatalf("%s/%s: sequential %+v, parallel %+v", ds, s, a, b)
			}
		}
	}
}

func TestBenchmarkingParallelPropagatesErrors(t *testing.T) {
	scheds := []scheduler.Scheduler{mustSched(t, "HEFT")}
	if _, err := BenchmarkingRun([]string{"chains", "bogus"}, scheds, 1, 1, runner.Options{Workers: 2}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestPairwisePISAParallelRace(t *testing.T) {
	// Exercised under -race in CI runs; functional assertion here is
	// just completion with a full grid.
	scheds := []scheduler.Scheduler{
		mustSched(t, "HEFT"), mustSched(t, "CPoP"),
		mustSched(t, "MaxMin"), mustSched(t, "OLB"),
	}
	res, err := PairwisePISARun(scheds, PairwiseOptions{Anneal: smallAnneal(25)}, runner.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Ratios {
		for j := range res.Ratios[i] {
			if i != j && res.Ratios[i][j] < 0 {
				t.Fatalf("cell (%d,%d) never computed", i, j)
			}
		}
	}
}
