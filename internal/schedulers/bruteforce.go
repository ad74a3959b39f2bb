package schedulers

import (
	"fmt"

	"saga/internal/exact"
	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

func init() {
	scheduler.Register("BruteForce", func() scheduler.Scheduler { return BruteForce{} })
	scheduler.Register("SMT", func() scheduler.Scheduler { return SMT{} })
}

// BruteForce tries every placement order and node assignment (with
// branch-and-bound pruning) and returns a schedule with minimum makespan.
// Like the paper's BruteForce it runs in exponential time and is excluded
// from the benchmarking and adversarial experiments; it exists as an
// optimality reference for tiny instances. Instances beyond MaxTasks
// tasks are rejected up front.
type BruteForce struct {
	// MaxTasks bounds accepted instances (default 10).
	MaxTasks int
	// Budget caps explored search nodes (default per package exact).
	Budget int64
}

// Name implements scheduler.Scheduler.
func (BruteForce) Name() string { return "BruteForce" }

// ScheduleScratch implements scheduler.Scheduler. The search is
// package exact's and allocates its own state; the optimum is copied
// into out.
func (bf BruteForce) ScheduleScratch(inst *graph.Instance, _ *scheduler.Scratch, out *schedule.Schedule) error {
	max := bf.MaxTasks
	if max <= 0 {
		max = 10
	}
	if n := inst.Graph.NumTasks(); n > max {
		return fmt.Errorf("schedulers: BruteForce accepts at most %d tasks, got %d", max, n)
	}
	sch, err := exact.Solve(inst, exact.Options{MaxNodes: bf.Budget})
	if err != nil {
		return err
	}
	out.CopyFrom(sch)
	return nil
}

// SMT reproduces the paper's SMT-driven binary search scheduler: binary
// search over a makespan deadline, with an exact decision procedure
// answering "does a schedule with makespan <= M exist?", converging to a
// (1+ε)-optimal schedule. The paper's decision procedure is an external
// SMT solver; here it is the branch-and-bound feasibility search of
// package exact (DESIGN.md, substitution 1). Like BruteForce it is
// exponential and excluded from the paper's experiments.
type SMT struct {
	// Epsilon is the relative optimality gap ε (default 0.01).
	Epsilon float64
	// MaxTasks bounds accepted instances (default 10).
	MaxTasks int
	// Budget caps explored search nodes per decision (default per
	// package exact).
	Budget int64
}

// Name implements scheduler.Scheduler.
func (SMT) Name() string { return "SMT" }

// ScheduleScratch implements scheduler.Scheduler. The HEFT upper bound
// runs on scr; each feasible schedule package exact finds below it is
// copied into out.
func (s SMT) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	eps := s.Epsilon
	if eps <= 0 {
		eps = 0.01
	}
	max := s.MaxTasks
	if max <= 0 {
		max = 10
	}
	if n := inst.Graph.NumTasks(); n > max {
		return fmt.Errorf("schedulers: SMT accepts at most %d tasks, got %d", max, n)
	}

	// Upper bound: any heuristic schedule. HEFT is cheap and good.
	if err := (HEFT{}).ScheduleScratch(inst, scr, out); err != nil {
		return err
	}
	lo, hi := exact.LowerBound(inst, scr), out.Makespan()
	opts := exact.Options{MaxNodes: s.Budget}
	for hi-lo > eps*lo+graph.Eps {
		mid := (lo + hi) / 2
		sch, ok, err := exact.Feasible(inst, mid, opts)
		if err != nil {
			return err
		}
		if ok {
			out.CopyFrom(sch)
			hi = sch.Makespan()
		} else {
			lo = mid
		}
	}
	return nil
}
