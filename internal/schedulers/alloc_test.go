package schedulers

import (
	"testing"

	"saga/internal/datasets"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// gatedNames is every registered scheduler except BruteForce and SMT:
// the roster the zero-allocation and scratch-vs-fresh gates run over, so
// a newly registered algorithm is gated without anyone listing it. The
// two exact schedulers are left out because their search lives in
// package exact, which allocates its own state on every call, outside
// the scratch.
func gatedNames() []string {
	var names []string
	for _, n := range scheduler.Names() {
		if n != "BruteForce" && n != "SMT" {
			names = append(names, n)
		}
	}
	return names
}

// TestScheduleScratchZeroAlloc is the allocation-regression gate for the
// scheduling hot path: after warm-up, a full ScheduleScratch call on the
// Fig 1 instance must allocate nothing. HEFT and CPoP are the paper's
// headline pair and the acceptance bar; every other registered list
// scheduler (gatedNames) rides along so a regression in any shared
// primitive (builder, ready set, rank buffers, tables) fails loudly with
// the algorithm's name attached. HEFT, CPoP, FCP, FLB and the schedulers
// that keep a row cache (MinMin, MaxMin, Duplex, ETF, GDL, BIL, ERT and
// WBA, at two rounds) are also held to 0 warm on scale_layered_1k, where
// the ready rows are 32 nodes wide, the row cache holds 1k rows and
// AppendRow's output rows have grown to the widest step. FCP and FLB are
// held to 0 on scale_chains_1k as well, where FLB's candidate memo hits
// on most steps.
func TestScheduleScratchZeroAlloc(t *testing.T) {
	inst := datasets.Fig1Instance()
	for _, name := range gatedNames() {
		s, err := scheduler.New(name)
		if err != nil {
			t.Fatal(err)
		}
		scr := scheduler.NewScratch()
		var out schedule.Schedule
		// Warm up: grow every arena (builder, timelines, rank buffers,
		// extension state) to steady-state capacity.
		for i := 0; i < 3; i++ {
			if err := s.ScheduleScratch(inst, scr, &out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := s.ScheduleScratch(inst, scr, &out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per warm Schedule, want 0", name, allocs)
		}
	}
	rows := []struct {
		dataset string
		names   []string
	}{
		{"scale_layered_1k", []string{"HEFT", "CPoP", "FCP", "FLB", "MinMin", "MaxMin", "Duplex", "ETF", "GDL", "BIL", "ERT", "WBA"}},
		{"scale_chains_1k", []string{"FCP", "FLB"}},
	}
	for _, row := range rows {
		big := scaleTierInstance(t, row.dataset)
		for _, name := range row.names {
			s, err := scheduler.New(name)
			if err != nil {
				t.Fatal(err)
			}
			if w, ok := s.(WBA); ok {
				w.Rounds = 2
				s = w
			}
			scr := scheduler.NewScratch()
			var out schedule.Schedule
			if err := s.ScheduleScratch(big, scr, &out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if err := s.ScheduleScratch(big, scr, &out); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s on %s: %v allocs per warm Schedule, want 0", name, row.dataset, allocs)
			}
		}
	}
}

// BenchmarkFCPFLBColdScratch10k schedules scale_layered_10k with FCP and
// then FLB on a new Scratch per op, so B/op is everything the pair
// allocates from cold: tables, builder, ranks, ready set and FLB's memo.
// Neither reads a ready row, so the scratch's row cache (|T|·|V|·12 =
// 3.84 MB here) is never allocated; EXPERIMENTS.md ("Two-node scoring
// and lazy rows") records B/op with and without it.
func BenchmarkFCPFLBColdScratch10k(b *testing.B) {
	inst := scaleTierInstance(b, "scale_layered_10k")
	var out schedule.Schedule
	b.ReportAllocs()
	for b.Loop() {
		scr := scheduler.NewScratch()
		for _, s := range []scheduler.Scheduler{FCP{}, FLB{}} {
			if err := s.ScheduleScratch(inst, scr, &out); err != nil {
				b.Fatal(err)
			}
		}
	}
}
