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

// exactMaxTasks bounds the instances BruteForce and SMT accept, and
// smtEpsilon is SMT's relative optimality gap ε. Both search with
// package exact's default node budget.
const (
	exactMaxTasks = 10
	smtEpsilon    = 0.01
)

// BruteForce tries every placement order and node assignment (with
// branch-and-bound pruning) and returns a schedule with minimum makespan.
// Like the paper's BruteForce it runs in exponential time and is excluded
// from the benchmarking and adversarial experiments; it exists as an
// optimality reference for tiny instances. Instances beyond
// exactMaxTasks tasks are rejected up front.
type BruteForce struct{}

// Name implements scheduler.Scheduler.
func (BruteForce) Name() string { return "BruteForce" }

// ScheduleScratch implements scheduler.Scheduler. The search is
// package exact's and allocates its own state; the optimum is copied
// into out.
func (BruteForce) ScheduleScratch(inst *graph.Instance, _ *scheduler.Scratch, out *schedule.Schedule) error {
	if n := inst.Graph.NumTasks(); n > exactMaxTasks {
		return fmt.Errorf("schedulers: BruteForce accepts at most %d tasks, got %d", exactMaxTasks, n)
	}
	sch, err := exact.Solve(inst, exact.Options{})
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
type SMT struct{}

// Name implements scheduler.Scheduler.
func (SMT) Name() string { return "SMT" }

// ScheduleScratch implements scheduler.Scheduler. The HEFT upper bound
// runs on scr; each feasible schedule package exact finds below it is
// copied into out.
func (SMT) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	if n := inst.Graph.NumTasks(); n > exactMaxTasks {
		return fmt.Errorf("schedulers: SMT accepts at most %d tasks, got %d", exactMaxTasks, n)
	}

	// Upper bound: any heuristic schedule. HEFT is cheap and good.
	if err := (HEFT{}).ScheduleScratch(inst, scr, out); err != nil {
		return err
	}
	lo, hi := exact.LowerBound(inst, scr), out.Makespan()
	for hi-lo > smtEpsilon*lo+graph.Eps {
		mid := (lo + hi) / 2
		sch, ok, err := exact.Feasible(inst, mid, exact.Options{})
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
