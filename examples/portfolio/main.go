// Portfolio selection: the Section VII conclusion's proposal for
// Workflow Management System designers — run PISA over a set of
// candidate schedulers and pick the few whose combined worst-case
// makespan ratio is smallest, so that running all of them and keeping
// the best schedule covers every client workload.
package main

import (
	"fmt"
	"log"

	"saga/internal/core"
	"saga/internal/experiments"
	"saga/internal/render"
	"saga/internal/runner"
	"saga/internal/scheduler"
	"saga/internal/schedulers"
)

func main() {
	// Candidates: the six Section VII schedulers.
	var scheds []scheduler.Scheduler
	for _, name := range schedulers.AppSpecificNames {
		s, err := scheduler.New(name)
		if err != nil {
			log.Fatal(err)
		}
		scheds = append(scheds, s)
	}

	// Pairwise adversarial grid (parallel across scheduler pairs).
	opts := core.DefaultOptions()
	opts.MaxIters = 300
	opts.Restarts = 2
	fmt.Println("running pairwise PISA over", len(scheds), "schedulers...")
	grid, err := experiments.PairwisePISARun(scheds, experiments.PairwiseOptions{Anneal: opts}, runner.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(render.Grid("worst-case ratio of column scheduler vs row baseline:",
		grid.Schedulers, grid.Schedulers, grid.Ratios))

	// Portfolios of every size: how much does each extra algorithm buy?
	fmt.Println("\nportfolio size vs combined worst-case ratio:")
	for k := 1; k <= len(scheds); k++ {
		p, err := experiments.SelectPortfolio(grid.Schedulers, grid.Ratios, k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  k=%d  worst ratio %s  members: %v\n",
			k, render.Cell(p.WorstRatio), p.Members)
	}

	three, err := experiments.SelectPortfolio(grid.Schedulers, grid.Ratios, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthe paper's suggested choice — three algorithms with the combined\n")
	fmt.Printf("minimum maximum makespan ratio: %v (worst case %s)\n",
		three.Members, render.Cell(three.WorstRatio))

	// An ensemble over the selected portfolio is itself a Scheduler.
	ens := schedulers.NewEnsemble("portfolio", three.Members...)
	fmt.Printf("\nensemble %q is ready to deploy as a single scheduler.\n", ens.Name())
}
