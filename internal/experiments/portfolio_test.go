package experiments

import (
	"fmt"
	"testing"

	"saga/internal/graph"
	"saga/internal/runner"
	"saga/internal/scheduler"
)

func TestSelectPortfolioHandPicked(t *testing.T) {
	// Three schedulers; A is terrible against base 2, B against base 0,
	// C mediocre everywhere. Best pair must be {A, B}: each covers the
	// other's weakness.
	names := []string{"A", "B", "C"}
	ratios := [][]float64{
		{-1, 10, 3},
		{1.2, -1, 3},
		{10, 1.1, -1},
	}
	res, err := SelectPortfolio(names, ratios, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 2 || res.Members[0] != "A" || res.Members[1] != "B" {
		t.Fatalf("portfolio = %v, want [A B]", res.Members)
	}
	// Worst ratio: base0 → min(-1→1 for A, 10 for B)=1; base1 → min(1.2, -1→1)=1;
	// base2 → min(10, 1.1) = 1.1.
	if !graph.ApproxEq(res.WorstRatio, 1.1) {
		t.Fatalf("WorstRatio = %v, want 1.1", res.WorstRatio)
	}
}

func TestSelectPortfolioFullSetIsBest(t *testing.T) {
	names := []string{"A", "B"}
	ratios := [][]float64{{-1, 2}, {3, -1}}
	res, err := SelectPortfolio(names, ratios, 2)
	if err != nil {
		t.Fatal(err)
	}
	// With every scheduler included, each base is covered by itself.
	if !graph.ApproxEq(res.WorstRatio, 1) {
		t.Fatalf("full portfolio worst ratio = %v, want 1", res.WorstRatio)
	}
}

func TestSelectPortfolioMonotonicInK(t *testing.T) {
	// Larger portfolios can only improve the combined worst ratio.
	scheds := []scheduler.Scheduler{
		mustSched(t, "HEFT"), mustSched(t, "CPoP"),
		mustSched(t, "MinMin"), mustSched(t, "FastestNode"),
	}
	res, err := pairwisePISARun(scheds, smallAnneal(60), runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := 1e18
	for k := 1; k <= len(scheds); k++ {
		p, err := SelectPortfolio(res.Schedulers, res.Ratios, k)
		if err != nil {
			t.Fatal(err)
		}
		if p.WorstRatio > prev+graph.Eps {
			t.Fatalf("k=%d worsened the portfolio: %v > %v", k, p.WorstRatio, prev)
		}
		prev = p.WorstRatio
		if len(p.Members) != k {
			t.Fatalf("portfolio size %d, want %d", len(p.Members), k)
		}
	}
}

func TestSelectPortfolioErrors(t *testing.T) {
	if _, err := SelectPortfolio([]string{"A"}, [][]float64{{-1}}, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := SelectPortfolio([]string{"A"}, [][]float64{{-1}}, 2); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := SelectPortfolio([]string{"A", "B"}, [][]float64{{-1, 1}}, 1); err == nil {
		t.Fatal("ragged grid accepted")
	}
	// C(32, 16) subsets: refused before a single one is scored.
	names := make([]string, 32)
	ratios := make([][]float64, 32)
	for i := range names {
		names[i] = fmt.Sprint(i)
		ratios[i] = make([]float64, 32)
	}
	if _, err := SelectPortfolio(names, ratios, 16); err == nil {
		t.Fatal("C(32,16) enumeration accepted")
	}
}

// TestCheckPortfolioSizeBound pins the roster bound at its edges: every
// size-k portfolio over at most the registered schedulers passes, the
// largest enumeration among them included, and one scheduler more does
// not.
func TestCheckPortfolioSizeBound(t *testing.T) {
	r := len(scheduler.Names())
	for _, c := range []struct {
		n, k int
		ok   bool
	}{
		{15, 3, true},     // the paper's 455
		{r, r / 2, true},  // the largest enumeration a valid roster asks for
		{r, r, true},      // one subset
		{r, 1, true},      // r subsets
		{r + 1, 1, false}, // a roster past the registry repeats a name
		{32, 16, false},
		{100000, 2, false},
		{3, 0, false},
		{3, 4, false},
	} {
		if err := CheckPortfolioSize(c.n, c.k); (err == nil) != c.ok {
			t.Errorf("CheckPortfolioSize(%d, %d) = %v, want ok=%v", c.n, c.k, err, c.ok)
		}
	}
}
