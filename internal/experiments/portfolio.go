package experiments

import (
	"fmt"
	"math"
	"sort"

	"saga/internal/scheduler"
)

// PortfolioResult is the outcome of the Section VII portfolio-selection
// procedure the paper sketches for Workflow Management System designers:
// "run PISA and choose the three algorithms with the combined minimum
// maximum makespan ratio".
type PortfolioResult struct {
	// Members are the selected scheduler names, in roster order.
	Members []string
	// WorstRatio is the portfolio's combined worst-case makespan ratio:
	// the maximum over base schedulers of the minimum over members of
	// the PISA cell (a portfolio runs all members and keeps the best
	// schedule, so per base it pays the best member's ratio).
	WorstRatio float64
}

// CheckPortfolioSize reports whether a size-k portfolio over n
// schedulers is selectable: k in [1, n], and n at most the number of
// registered schedulers, since a roster that names more repeats one. So
// SelectPortfolio enumerates at most C(r, r/2) subsets for r registered
// schedulers, C(21, 10) = 352 716 today, and the largest valid roster
// reaches that bound. SelectPortfolio enforces it, and serve.Portfolio
// and the /v1/portfolio handler, which run a PISA sweep before
// selecting, check it first so an unselectable request costs no cell.
func CheckPortfolioSize(n, k int) error {
	if k <= 0 || k > n {
		return fmt.Errorf("experiments: portfolio size %d outside [1, %d]", k, n)
	}
	if r := len(scheduler.Names()); n > r {
		return fmt.Errorf("experiments: a portfolio over %d schedulers repeats one: %d are registered", n, r)
	}
	return nil
}

// SelectPortfolio chooses the size-k subset of schedulers minimizing the
// combined maximum makespan ratio against every base scheduler, given a
// PISA grid (ratios[i][j] = worst-case ratio of scheduler j against base
// i; diagonal and unknown cells < 0 are treated as ratio 1, since a
// scheduler never loses to itself). Ties go to the first subset in
// lexicographic index order.
//
// The scheduler count is small (15 in the paper), so exhaustive subset
// enumeration is exact and cheap: C(15,3) = 455 candidates.
// CheckPortfolioSize bounds it by the registry.
func SelectPortfolio(schedulers []string, ratios [][]float64, k int) (*PortfolioResult, error) {
	n := len(schedulers)
	if err := CheckPortfolioSize(n, k); err != nil {
		return nil, err
	}
	if len(ratios) != n {
		return nil, fmt.Errorf("experiments: ratio grid has %d rows for %d schedulers", len(ratios), n)
	}

	best := &PortfolioResult{WorstRatio: math.Inf(1)}
	subset := make([]int, k)
	var recurse func(start, depth int)
	recurse = func(start, depth int) {
		if depth == k {
			if worst := subsetWorstRatio(ratios, subset); worst < best.WorstRatio {
				members := make([]string, k)
				for i, j := range subset {
					members[i] = schedulers[j]
				}
				best.Members, best.WorstRatio = members, worst
			}
			return
		}
		for j := start; j <= n-(k-depth); j++ {
			subset[depth] = j
			recurse(j+1, depth+1)
		}
	}
	recurse(0, 0)
	sort.Strings(best.Members)
	return best, nil
}

// subsetWorstRatio scores one candidate portfolio: the maximum over base
// schedulers of the minimum member ratio. Diagonal and unknown cells
// (< 0) count as ratio 1, since a scheduler never loses to itself.
func subsetWorstRatio(ratios [][]float64, subset []int) float64 {
	worst := 0.0
	for base := range ratios {
		cell := math.Inf(1)
		for _, j := range subset {
			r := ratios[base][j]
			if r < 0 {
				r = 1 // self or unknown: no loss
			}
			if r < cell {
				cell = r
			}
		}
		if cell > worst {
			worst = cell
		}
	}
	return worst
}
