package schedulers

import (
	"testing"

	"saga/internal/datasets"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// TestScheduleScratchZeroAlloc is the allocation-regression gate for the
// scheduling hot path: after warm-up, a full ScheduleScratch call on the
// Fig 1 instance must allocate nothing. HEFT and CPoP are the paper's
// headline pair and the acceptance bar; the other list schedulers ride
// along so a regression in any shared primitive (builder, ready set,
// rank buffers, tables) fails loudly with the algorithm's name attached.
// HEFT, CPoP and FLB are also held to 0 warm on scale_layered_1k, where
// the ready rows are 32 nodes wide and FLB's row cache holds 1k rows.
func TestScheduleScratchZeroAlloc(t *testing.T) {
	inst := datasets.Fig1Instance()
	names := []string{
		"HEFT", "CPoP", "BIL", "ETF", "FCP", "FLB", "FastestNode",
		"GDL", "MCT", "MET", "MaxMin", "MinMin", "OLB", "WBA",
		"LMT", "ERT", "MH", "Duplex", "Ensemble",
	}
	for _, name := range names {
		s, err := scheduler.New(name)
		if err != nil {
			t.Fatal(err)
		}
		ss, ok := s.(scheduler.ScratchScheduler)
		if !ok {
			t.Fatalf("%s does not implement ScratchScheduler", name)
		}
		scr := scheduler.NewScratch()
		var out schedule.Schedule
		// Warm up: grow every arena (builder, timelines, rank buffers,
		// extension state) to steady-state capacity.
		for i := 0; i < 3; i++ {
			if err := ss.ScheduleScratch(inst, scr, &out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := ss.ScheduleScratch(inst, scr, &out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per warm Schedule, want 0", name, allocs)
		}
	}
	big := scaleTierInstance(t, "scale_layered_1k")
	for _, name := range []string{"HEFT", "CPoP", "FLB"} {
		s, err := scheduler.New(name)
		if err != nil {
			t.Fatal(err)
		}
		ss := s.(scheduler.ScratchScheduler)
		scr := scheduler.NewScratch()
		var out schedule.Schedule
		if err := ss.ScheduleScratch(big, scr, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if err := ss.ScheduleScratch(big, scr, &out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s on scale_layered_1k: %v allocs per warm Schedule, want 0", name, allocs)
		}
	}
}
