// IoT/edge scheduling: place a RIoTBench ETL stream-processing pipeline
// onto an Edge/Fog/Cloud network and see how each algorithm trades
// computation speed against communication cost — the Table II IoT
// scenario.
package main

import (
	"fmt"
	"log"
	"sort"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	"saga/internal/schedulers"
)

func main() {
	r := rng.New(11)

	g, err := datasets.IoTRecipe("etl", r.Split())
	if err != nil {
		log.Fatal(err)
	}
	net := datasets.EdgeFogCloudNetwork(r.Split())
	inst := graph.NewInstance(g, net)
	if err := inst.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ETL pipeline: %d tasks, %d dependencies\n", g.NumTasks(), g.NumDeps())
	fmt.Printf("network: %d nodes (edge speed 1 / fog speed 6 / cloud speed 50)\n", net.NumNodes())
	fmt.Printf("instance CCR: %.3f\n\n", inst.CCR())

	type row struct {
		name     string
		makespan float64
		cloud    int // tasks placed on cloud-tier nodes
	}
	var rows []row
	for _, s := range schedulers.Experimental() {
		sch, err := scheduler.Schedule(s, inst)
		if err != nil {
			log.Fatal(err)
		}
		if err := schedule.Validate(inst, sch); err != nil {
			log.Fatalf("%s produced an invalid schedule: %v", s.Name(), err)
		}
		cloud := 0
		for _, a := range sch.ByTask {
			if net.Speeds[a.Node] == 50 {
				cloud++
			}
		}
		rows = append(rows, row{s.Name(), sch.Makespan(), cloud})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].makespan < rows[j].makespan })

	fmt.Printf("%-12s  %10s  %s\n", "scheduler", "makespan", "tasks on cloud")
	for _, r := range rows {
		fmt.Printf("%-12s  %10.3f  %d/%d\n", r.name, r.makespan, r.cloud, g.NumTasks())
	}
	fmt.Println("\nschedulers unaware of node heterogeneity (ETF, FCP, FLB, OLB)")
	fmt.Println("leave the 50x-faster cloud nodes idle and pay for it — the")
	fmt.Println("pattern behind the IoT rows of the paper's Fig 2.")

	// Pick the winner the way a deployment pipeline would.
	best := rows[0]
	winner, err := scheduler.New(best.name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nselected scheduler: %s (makespan %.3f)\n", winner.Name(), best.makespan)
}
