// Quickstart: build a problem instance by hand, schedule it with HEFT,
// validate the schedule, and draw it.
//
// This walks the Section II model end to end: a task graph with compute
// costs and data sizes, a heterogeneous network with speeds and link
// strengths, a scheduler, and the makespan of the result.
package main

import (
	"fmt"
	"log"

	"saga/internal/graph"
	"saga/internal/render"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	_ "saga/internal/schedulers" // register all Table I algorithms
)

func main() {
	// A diamond task graph: t1 fans out to t2 and t3, which join at t4
	// (the paper's Fig 1 example).
	g := graph.NewTaskGraph()
	t1 := g.AddTask("t1", 1.7)
	t2 := g.AddTask("t2", 1.2)
	t3 := g.AddTask("t3", 2.2)
	t4 := g.AddTask("t4", 0.8)
	g.MustAddDep(t1, t2, 0.6)
	g.MustAddDep(t1, t3, 0.5)
	g.MustAddDep(t2, t4, 1.3)
	g.MustAddDep(t3, t4, 1.6)

	// A three-node heterogeneous network.
	net := graph.NewNetwork(3)
	net.Speeds[0], net.Speeds[1], net.Speeds[2] = 1.0, 1.2, 1.5
	net.SetLink(0, 1, 0.5)
	net.SetLink(0, 2, 1.0)
	net.SetLink(1, 2, 1.2)

	inst := graph.NewInstance(g, net)
	if err := inst.Validate(); err != nil {
		log.Fatal(err)
	}

	// Schedule with HEFT and check the result satisfies every Section II
	// validity constraint.
	heft, err := scheduler.New("HEFT")
	if err != nil {
		log.Fatal(err)
	}
	sch, err := scheduler.Schedule(heft, inst)
	if err != nil {
		log.Fatal(err)
	}
	if err := schedule.Validate(inst, sch); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("HEFT makespan: %.4f\n", sch.Makespan())
	fmt.Print(render.Gantt(inst, sch, 60))

	// Compare against every other registered algorithm.
	fmt.Println("\nall schedulers on this instance:")
	for _, name := range scheduler.Names() {
		s, err := scheduler.New(name)
		if err != nil {
			log.Fatal(err)
		}
		res, err := scheduler.Schedule(s, inst)
		if err != nil {
			fmt.Printf("  %-12s (skipped: %v)\n", name, err)
			continue
		}
		if err := schedule.Validate(inst, res); err != nil {
			log.Fatalf("%s produced an invalid schedule: %v", name, err)
		}
		fmt.Printf("  %-12s makespan %.4f\n", name, res.Makespan())
	}
}
