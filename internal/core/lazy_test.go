package core

import (
	"slices"
	"testing"

	"saga/internal/datasets"
	"saga/internal/exact"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// TestLowerBoundHoldsOnAnnealedInstances walks 200 perturbations in
// every mode from a Section VI initial instance, keeping each, and
// requires every registered scheduler to schedule every step at or above
// exact.LowerBound less Validate's slack: the bound runChain settles
// candidates on. A scheduler beating it, or failing where a settled
// candidate would have skipped it, would make Run diverge from
// RunReference.
func TestLowerBoundHoldsOnAnnealedInstances(t *testing.T) {
	var scheds []scheduler.Scheduler
	for _, name := range scheduler.Names() {
		scheds = append(scheds, mustSched(t, name))
	}
	modes := incrementalModes()
	keys := make([]string, 0, len(modes))
	for mode := range modes {
		keys = append(keys, mode)
	}
	slices.Sort(keys)
	var out schedule.Schedule
	for _, mode := range keys {
		p := modes[mode].withDefaults()
		r := rng.New(0x10b)
		cur := prepare(datasets.InitialPISAInstance(r.Split()), p)
		ps := &perturbState{ops: enabledOps(p)}
		scr := scheduler.NewScratch()
		for step := 0; step < 200; step++ {
			perturbInPlace(cur, r, p, ps)
			scr.Prepare(cur)
			lb := exact.LowerBound(cur, scr) - 2*float64(cur.Graph.NumTasks())*graph.Eps
			for _, s := range scheds {
				if err := s.ScheduleScratch(cur, scr, &out); err != nil {
					t.Fatalf("%s step %d: %s failed: %v", mode, step, s.Name(), err)
				}
				if out.Makespan() < lb {
					t.Fatalf("%s step %d: %s makespan %v below the deflated lower bound %v", mode, step, s.Name(), out.Makespan(), lb)
				}
			}
		}
	}
}
