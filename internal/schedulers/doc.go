// Package schedulers implements the 17 task scheduling algorithms listed
// in Table I of the PISA paper: BIL, BruteForce, CPoP, Duplex, ETF,
// FastestNode, FCP, FLB, GDL, HEFT, MaxMin, MCT, MET, MinMin, OLB, SMT,
// and WBA.
//
// Every algorithm implements scheduler.Scheduler and registers itself
// with the scheduler registry under its paper abbreviation. The 15
// polynomial-time algorithms used in the paper's experiments are
// available through Experimental; BruteForce and SMT (exponential time)
// are registered but excluded, exactly as in the paper.
//
// Every algorithm has one method besides Name, ScheduleScratch, and is a
// stateless value: its fields are configuration (WBA's seed and rounds,
// an Ensemble's members), and everything it mutates lives in the
// scheduler.Scratch it is handed (Ext, rank buffers, builder), so the
// experiment drivers share one value across all their workers.
// Algorithms read the precomputed graph.Tables through the scratch and
// must treat them as authoritative for the instance's current state: the
// PISA annealer mutates instances in place and patches the tables
// incrementally (the staleness contract in graph/tables.go) rather than
// rebuilding, so a scheduler must never cache table-derived values
// across calls or read the Instance where a table entry exists — the
// table IS the coherent view. scratch_determinism_test.go pins every
// algorithm bit-identical to its table-free reference implementation.
//
// Every list scheduler is a placement policy handed to one of two
// construction drivers (construct.go), which own the builder, the ready
// set, the ready-row cache (scheduler.ReadyRows, a Scratch buffer that
// grows and clears only when a policy reads a row) and every placement. placeInOrder walks an order fixed before the first
// placement and asks the policy for each task's node and start (HEFT,
// CPoP, MH, LMT, MCT, MET, OLB, FastestNode); placeReady asks it once per
// step for the next task, node and start among the ready tasks (MinMin,
// MaxMin, Duplex, ETF, GDL, BIL, ERT, FCP, FLB, WBA), and stops early
// when the policy returns no task, as WBA does for a round that can no
// longer win. A check every construction must make belongs in those two
// loops.
//
// Cross-call memoization is the scratch's job, not the scheduler's: the
// rank accessors (Scratch.UpwardRank/DownwardRank/StaticLevel) are
// memoized per (instance, Tables.Generation), so the baseline scheduler
// of a PISA pair reuses the target's rank computation for free. A new
// scheduler that derives its own priority vector from the tables and
// wants the same reuse must key it on Tables.Generation the same way —
// never on the instance pointer alone, and never by assuming "the
// instance looks unchanged" (in-place perturbation makes that
// undetectable; the generation stamp is the only reliable signal).
package schedulers

import "saga/internal/scheduler"

// ExperimentalNames lists, in the paper's figure order, the 15 algorithms
// used in the benchmarking (Fig 2) and adversarial (Fig 4) experiments.
var ExperimentalNames = []string{
	"BIL", "CPoP", "Duplex", "ETF", "FCP", "FLB", "FastestNode",
	"GDL", "HEFT", "MCT", "MET", "MaxMin", "MinMin", "OLB", "WBA",
}

// AppSpecificNames lists the 6 schedulers used in the Section VII
// application-specific experiments (Figs 10-19).
var AppSpecificNames = []string{
	"CPoP", "FastestNode", "HEFT", "MaxMin", "MinMin", "WBA",
}

// Experimental instantiates the 15 experiment algorithms in paper order.
func Experimental() []scheduler.Scheduler {
	return instantiate(ExperimentalNames)
}

// AppSpecific instantiates the 6 Section VII algorithms.
func AppSpecific() []scheduler.Scheduler {
	return instantiate(AppSpecificNames)
}

func instantiate(names []string) []scheduler.Scheduler {
	out := make([]scheduler.Scheduler, len(names))
	for i, n := range names {
		s, err := scheduler.New(n)
		if err != nil {
			panic(err)
		}
		out[i] = s
	}
	return out
}
