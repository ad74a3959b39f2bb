package experiments

import (
	"fmt"
	"math"
	"os"
	"testing"

	"saga/internal/exact"
	"saga/internal/graph"
	"saga/internal/runner"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	"saga/internal/sim"
)

// certify re-checks one PISA cell from its instance alone: it schedules
// target and base afresh, requires both schedules valid
// (schedule.Validate) and replayable at their planned makespans
// (sim.Execute in Strict mode, within graph.Eps), requires both
// makespans at least the lower bound less its documented slack
// (exact.LowerBound − 2·|T|·Eps) and at least the optimum less Eps
// (exact.Solve; a search over budget fails, it never skips), and
// re-derives the cell's ratio, which must equal ratio bit for bit.
func certify(inst *graph.Instance, target, base scheduler.Scheduler, ratio float64) error {
	opt, err := exact.Solve(inst, exact.Options{})
	if err != nil {
		return fmt.Errorf("exact.Solve: %w", err)
	}
	lb := exact.LowerBound(inst, scheduler.NewScratch()) - 2*float64(inst.Graph.NumTasks())*graph.Eps
	var ms [2]float64
	for k, s := range []scheduler.Scheduler{target, base} {
		sch, err := scheduler.Schedule(s, inst)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name(), err)
		}
		if err := schedule.Validate(inst, sch); err != nil {
			return fmt.Errorf("%s: invalid schedule: %w", s.Name(), err)
		}
		rep, err := sim.Execute(inst, sch, sim.Strict)
		if err != nil {
			return fmt.Errorf("%s: replay refused: %w", s.Name(), err)
		}
		m := sch.Makespan()
		switch {
		case math.Abs(rep.Makespan-m) > graph.Eps:
			return fmt.Errorf("%s: planned makespan %v, replayed %v", s.Name(), m, rep.Makespan)
		case m < lb:
			return fmt.Errorf("%s: makespan %v below the lower bound %v", s.Name(), m, lb)
		case m < opt.Makespan()-graph.Eps:
			return fmt.Errorf("%s: makespan %v below the optimum %v", s.Name(), m, opt.Makespan())
		}
		ms[k] = m
	}
	// The annealer's rule (core's ratioOver): a zero baseline makespan is
	// ratio 1 over a zero target makespan and +Inf over any other.
	got := ms[0] / ms[1]
	if ms[1] == 0 {
		got = math.Inf(1)
		if ms[0] == 0 {
			got = 1
		}
	}
	if math.Float64bits(got) != math.Float64bits(ratio) {
		return fmt.Errorf("stored ratio %v, re-derived %v (%s %v / %s %v)", ratio, got, target.Name(), ms[0], base.Name(), ms[1])
	}
	return nil
}

// certifyGrid certifies every off-diagonal cell of a pairwise grid and
// returns how many it checked.
func certifyGrid(t *testing.T, label string, res *PairwiseResult) int {
	t.Helper()
	cells := 0
	for i, b := range res.Schedulers {
		for j, a := range res.Schedulers {
			if i == j {
				continue
			}
			cells++
			if err := certify(res.Instances[i][j], mustSched(t, a), mustSched(t, b), res.Ratios[i][j]); err != nil {
				t.Errorf("%s: %s vs base %s: %v", label, a, b, err)
			}
		}
	}
	return cells
}

// TestFig4Certified runs the paper-scale Fig 4 grid (1000 iterations × 5
// restarts) and certifies every cell. The plain suite covers seeds 1-2;
// CERTIFY_GATE=1 (`make certify`, part of `make verify`) covers 1-6.
func TestFig4Certified(t *testing.T) {
	seeds := uint64(2)
	if os.Getenv("CERTIFY_GATE") != "" {
		seeds = 6
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		_, compute, err := Fig4.Bind(SweepParams{Iters: 1000, Restarts: 5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := compute(runner.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: %d cells certified", seed, certifyGrid(t, fmt.Sprintf("seed %d", seed), res))
	}
}
