package experiments

import (
	"testing"

	"saga/internal/runner"
	"saga/internal/scheduler"
)

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
