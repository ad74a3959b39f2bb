// Adversarial analysis: run PISA to find a problem instance where HEFT
// maximally under-performs CPoP, then dissect the instance the way the
// paper's Section VI-B case study does.
package main

import (
	"fmt"
	"log"

	"saga/internal/core"
	"saga/internal/experiments"
	"saga/internal/render"
	"saga/internal/scheduler"
	_ "saga/internal/schedulers"
	"saga/internal/serialize"
)

func main() {
	heft, err := scheduler.New("HEFT")
	if err != nil {
		log.Fatal(err)
	}
	cpop, err := scheduler.New("CPoP")
	if err != nil {
		log.Fatal(err)
	}

	// The paper's annealing parameters: Tmax=10, Tmin=0.1, alpha=0.99,
	// Imax=1000, 5 restarts from random chain instances.
	opts := core.DefaultOptions()
	opts.Seed = 7
	opts.RecordTrace = true

	fmt.Println("searching for an instance where HEFT under-performs CPoP...")
	res, err := experiments.SinglePISA(heft, cpop, opts)
	if err != nil {
		log.Fatal(err)
	}
	// The trace holds one point per candidate; show where each restart's
	// incumbent best rose.
	for i, p := range res.Trace {
		if i > 0 && res.Trace[i-1].Restart == p.Restart && p.Best > res.Trace[i-1].Best {
			fmt.Printf("  restart %d improved at iteration %d: ratio %.3f\n", p.Restart, p.Iteration, p.Best)
		}
	}
	fmt.Printf("\nbest makespan ratio m(HEFT)/m(CPoP): %.3f (restarts: %v)\n\n",
		res.BestRatio, res.RestartRatios)

	inst := res.Best
	sh, err := heft.Schedule(inst)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := cpop.Schedule(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("-- HEFT (makespan %.4f) --\n%s", sh.Makespan(), render.Gantt(inst, sh, 64))
	fmt.Printf("-- CPoP (makespan %.4f) --\n%s", sc.Makespan(), render.Gantt(inst, sc, 64))

	data, err := serialize.MarshalInstance(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nadversarial instance (JSON, reusable via `saga schedule -in ...`):\n%s\n", data)
}
