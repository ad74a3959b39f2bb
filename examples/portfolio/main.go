// Portfolio selection: the Section VII conclusion's proposal for
// Workflow Management System designers — run PISA over a set of
// candidate schedulers and pick the few whose combined worst-case
// makespan ratio is smallest, so that running all of them and keeping
// the best schedule covers every client workload.
package main

import (
	"fmt"
	"log"

	"saga/internal/experiments"
	"saga/internal/render"
	"saga/internal/runner"
	"saga/internal/schedulers"
)

func main() {
	// Candidates: the six Section VII schedulers. The "pairwise" sweep
	// runs PISA for every ordered pair of them, in parallel across pairs.
	candidates := schedulers.AppSpecificNames
	_, pairwise, err := experiments.Pairwise.Bind(experiments.SweepParams{
		Schedulers: candidates, Iters: 300, Restarts: 2, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("running pairwise PISA over", len(candidates), "schedulers...")
	grid, err := pairwise(runner.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(render.Grid("worst-case ratio of column scheduler vs row baseline:",
		grid.Schedulers, grid.Schedulers, grid.Ratios))

	// Portfolios of every size: how much does each extra algorithm buy?
	fmt.Println("\nportfolio size vs combined worst-case ratio:")
	for k := 1; k <= len(candidates); k++ {
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
