package core

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/scheduler"
	_ "saga/internal/schedulers"
)

// searchRow is one reference and the configurations held to it.
// restarts overrides testOptions' 2 (annealer only); mode is an
// incrementalModes key, "" leaving Perturb zero; workers are the widths
// compared, nil the default; reuse runs each width that many times
// through one caller scratch (0 passes none); singleProc holds the
// whole row, reference included, at GOMAXPROCS=1; check, when set, runs
// on the reference. initial and perturb, when set, replace testOptions'
// initial instances and the mode's perturbation (annealer only). The
// optimized runs must settle some candidates without their baseline when
// settles > 0 and none when settles < 0; traced and GA runs never settle.
type searchRow struct {
	test, name string // the test the row runs under; its subtest, "" for none
	ga         bool
	pair       [2]string
	mode       string
	seed       uint64
	restarts   int
	trace      bool
	workers    []int
	reuse      int
	singleProc bool
	check      func(t *testing.T, ref *Result)
	initial    func(r *rng.RNG) *graph.Instance
	perturb    *PerturbOptions
	settles    int
}

// workerCounts is the width panel: 0 and −1 (both clamp to one worker),
// one worker, two, NumCPU, and an over-provisioned count that exercises
// the clamp to the work size.
func workerCounts() []int {
	return []int{-1, 0, 1, 2, runtime.NumCPU(), 64}
}

// searchRows is the core layer's differential table: every combination
// of search, scheduler pair, perturbation mode, seed, restarts, worker
// count, caller-scratch reuse and GOMAXPROCS on which Run and RunGA are
// held to their test-only references (RunReference, copy-and-rebuild;
// RunGAReference, clone-and-full-Prepare). The mode × pair panels run
// one-shot (TestRunBitIdenticalToReference, traced and untraced, since
// only an untraced run settles candidates without their baseline;
// TestRunGABitIdenticalToReference) and at two workers
// (TestRunParallelModesAndPairs); TestRunLazyBaselineBitIdentical holds
// the lazy baseline's edge cases; the other rows pin one axis each: a
// caller scratch, every width, scratch reuse, GOMAXPROCS=1 and the tie
// rule of the restart merge; two runs at the default width stand for
// same-seed determinism. Each row computes its reference once and
// compares every configuration with assertResultsIdentical.
func searchRows() []searchRow {
	var rows []searchRow
	for _, mode := range []string{"general", "fixSpeeds", "fixLinks", "appSpecific"} {
		for _, pair := range [][2]string{{"HEFT", "CPoP"}, {"MinMin", "MaxMin"}, {"ETF", "HEFT"}, {"GDL", "BIL"}, {"HEFT", "FastestNode"}} {
			rows = append(rows, searchRow{test: "TestRunBitIdenticalToReference", name: mode + "/" + pair[0] + "-vs-" + pair[1],
				pair: pair, mode: mode, seed: uint64(len(mode) + len(pair[0])*31), trace: true},
				searchRow{test: "TestRunBitIdenticalToReference", name: mode + "/" + pair[0] + "-vs-" + pair[1] + "/untraced",
					pair: pair, mode: mode, seed: uint64(len(mode) + len(pair[0])*31)})
		}
		for _, pair := range [][2]string{{"ETF", "HEFT"}, {"GDL", "BIL"}, {"HEFT", "FastestNode"}} {
			rows = append(rows, searchRow{test: "TestRunParallelModesAndPairs", name: mode + "/" + pair[0] + "-vs-" + pair[1],
				pair: pair, mode: mode, seed: uint64(len(mode) + len(pair[0])*31), restarts: 3, workers: []int{2}})
		}
		for _, pair := range [][2]string{{"HEFT", "CPoP"}, {"MinMin", "MaxMin"}, {"ETF", "HEFT"}, {"GDL", "BIL"}} {
			rows = append(rows, searchRow{test: "TestRunGABitIdenticalToReference", name: mode + "/" + pair[0] + "-vs-" + pair[1],
				ga: true, pair: pair, mode: mode, seed: uint64(len(mode)*17 + len(pair[0])*31)})
		}
	}
	for _, pair := range [][2]string{{"HEFT", "CPoP"}, {"MinMin", "MaxMin"}} {
		rows = append(rows, searchRow{test: "TestRunParallelByteIdentical", name: pair[0] + "-vs-" + pair[1],
			pair: pair, seed: uint64(41 + len(pair[0])), restarts: 4, trace: true, workers: workerCounts()})
	}
	// Task costs pinned to [0, the smallest denormal] from all-zero
	// initial instances: the lower bound never exceeds the slack, so no
	// candidate may be settled.
	zeroCosts := DefaultPerturb()
	zeroCosts.TaskCost = [2]float64{0, math.SmallestNonzeroFloat64}
	return append(rows,
		searchRow{test: "TestRunLazyBaselineBitIdentical", name: "zero-task-costs", pair: [2]string{"HEFT", "CPoP"},
			seed: 3, initial: zeroCostInstance, perturb: &zeroCosts, workers: []int{0, 2}, settles: -1},
		searchRow{test: "TestRunLazyBaselineBitIdentical", name: "zero-baseline-makespan", pair: [2]string{"WBA", "HEFT"},
			seed: 7, initial: zeroCostInstance, workers: []int{0, 2}, settles: 1, check: infiniteRestartRatio},
		searchRow{test: "TestRunLazyBaselineBitIdentical", name: "section-vi", pair: [2]string{"HEFT", "CPoP"},
			mode: "general", seed: 1, workers: []int{0, 2}, settles: 1},
		searchRow{test: "TestRunDeterministic", pair: [2]string{"HEFT", "FastestNode"}, seed: 7, workers: []int{0, 0}},
		searchRow{test: "TestRunGADeterministic", ga: true, pair: [2]string{"MinMin", "MaxMin"}, seed: 5, workers: []int{0, 0}},
		searchRow{test: "TestRunBitIdenticalSharedScratch", pair: [2]string{"HEFT", "CPoP"}, seed: 41, trace: true, reuse: 1},
		searchRow{test: "TestRunParallelSharedScratchReuse", pair: [2]string{"HEFT", "CPoP"}, seed: 97, restarts: 3, trace: true,
			workers: []int{3}, reuse: 3},
		searchRow{test: "TestRunParallelSingleProc", pair: [2]string{"HEFT", "CPoP"}, seed: 7, restarts: 4, trace: true,
			workers: []int{4}, singleProc: true},
		searchRow{test: "TestRunParallelTieBreaksToLowestRestart", pair: [2]string{"HEFT", "HEFT"}, seed: 13, restarts: 4,
			workers: workerCounts(), check: tiesAtOneKeepRestartZero},
		searchRow{test: "TestRunGABitIdenticalSharedScratch", ga: true, pair: [2]string{"HEFT", "CPoP"}, seed: 77, reuse: 1},
		searchRow{test: "TestRunGAParallelByteIdentical", ga: true, pair: [2]string{"HEFT", "CPoP"}, seed: 59, workers: workerCounts()},
		searchRow{test: "TestRunGAParallelSingleProc", ga: true, pair: [2]string{"ETF", "HEFT"}, seed: 61,
			workers: []int{runtime.NumCPU() + 2}, singleProc: true},
		searchRow{test: "TestRunGAParallelSharedScratchReuse", ga: true, pair: [2]string{"GDL", "BIL"}, seed: 67,
			workers: []int{4}, reuse: 3},
	)
}

// tiesAtOneKeepRestartZero is the tie-break row's check. An identical
// scheduler as its own baseline pins every candidate to ratio 1, so the
// merged winner is decided purely by the tie rule: strict improvement in
// restart order keeps restart 0's instance, its initial one, which
// differs from every other restart's. A last-wins or racy merge at any
// width would surface some other restart's instance.
func tiesAtOneKeepRestartZero(t *testing.T, ref *Result) {
	t.Helper()
	if ref.BestRatio != 1 {
		t.Fatalf("self-pair best ratio = %v, want exactly 1", ref.BestRatio)
	}
	for _, ratio := range ref.RestartRatios {
		if ratio != 1 {
			t.Fatalf("restart ratios %v not all tied at 1", ref.RestartRatios)
		}
	}
	opts := testOptions(13)
	opts.Restarts = 1
	r0, err := Run(mustSched(t, "HEFT"), mustSched(t, "HEFT"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fingerprint(t, ref.Best), fingerprint(t, r0.Best)) {
		t.Fatal("reference tie-break did not keep restart 0's instance")
	}
}

// zeroCostInstance is a Section VI initial instance with every task
// cost 0. WBA may spread such a chain over nodes and pay for the
// transfers, while HEFT keeps it on one node at makespan 0.
func zeroCostInstance(r *rng.RNG) *graph.Instance {
	inst := datasets.InitialPISAInstance(r)
	for t := range inst.Graph.Tasks {
		inst.Graph.Tasks[t].Cost = 0
	}
	return inst
}

// infiniteRestartRatio is the zero-baseline-makespan row's check: some
// restart's best ratio is +Inf, so its chain compared every candidate
// against an infinite best.
func infiniteRestartRatio(t *testing.T, ref *Result) {
	t.Helper()
	if !slices.Contains(ref.RestartRatios, math.Inf(1)) {
		t.Fatalf("restart ratios %v: no baseline reached makespan 0", ref.RestartRatios)
	}
}

// runSearchRows runs the rows of the calling test, each in a subtest
// of its name.
func runSearchRows(t *testing.T) {
	n := 0
	for _, row := range searchRows() {
		if row.test != t.Name() {
			continue
		}
		n++
		if row.name == "" {
			row.run(t)
		} else {
			t.Run(row.name, row.run)
		}
	}
	if n == 0 {
		t.Fatalf("no rows for %s", t.Name())
	}
}

func (row searchRow) run(t *testing.T) {
	if row.singleProc {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	// search runs the reference, or the optimized path at a width
	// through scr (nil: none).
	search := func(reference bool, workers int, scr *scheduler.Scratch) *Result {
		t.Helper()
		target, baseline := mustSched(t, row.pair[0]), mustSched(t, row.pair[1])
		var res *Result
		var err error
		if row.ga {
			opts := gaTestOptions(row.seed)
			opts.Perturb = incrementalModes()[row.mode]
			if opts.Workers, opts.Scratch = workers, scr; reference {
				res, err = RunGAReference(target, baseline, opts)
			} else {
				res, err = RunGA(target, baseline, opts)
			}
		} else {
			opts := testOptions(row.seed)
			opts.Perturb = incrementalModes()[row.mode]
			if row.perturb != nil {
				opts.Perturb = *row.perturb
			}
			if row.initial != nil {
				opts.InitialInstance = row.initial
			}
			if row.restarts > 0 {
				opts.Restarts = row.restarts
			}
			opts.RecordTrace = row.trace
			if opts.Workers, opts.Scratch = workers, scr; reference {
				res, err = RunReference(target, baseline, opts)
			} else {
				res, err = Run(target, baseline, opts)
			}
		}
		if err != nil {
			t.Fatalf("reference=%v workers=%d: %v", reference, workers, err)
		}
		return res
	}
	ref := search(true, 0, nil)
	if row.check != nil {
		row.check(t, ref)
	}
	widths := row.workers
	if widths == nil {
		widths = []int{0}
	}
	for _, w := range widths {
		var scr *scheduler.Scratch
		runs := 1
		if row.reuse > 0 {
			scr, runs = scheduler.NewScratch(), row.reuse
		}
		for i := 0; i < runs; i++ {
			got := search(false, w, scr)
			assertResultsIdentical(t, got, ref)
			if settled := got.BaselineSkipped > 0; settled && (row.trace || row.ga || row.settles < 0) ||
				!settled && row.settles > 0 {
				t.Fatalf("workers=%d: %d candidates settled without their baseline", w, got.BaselineSkipped)
			}
		}
	}
}

func assertResultsIdentical(t *testing.T, inc, ref *Result) {
	t.Helper()
	if inc.BestRatio != ref.BestRatio {
		t.Fatalf("BestRatio diverged: incremental %v, reference %v", inc.BestRatio, ref.BestRatio)
	}
	if inc.Evaluations != ref.Evaluations {
		t.Fatalf("Evaluations diverged: incremental %d, reference %d", inc.Evaluations, ref.Evaluations)
	}
	if !slices.Equal(inc.RestartRatios, ref.RestartRatios) {
		t.Fatalf("RestartRatios diverged: incremental %v, reference %v", inc.RestartRatios, ref.RestartRatios)
	}
	if !bytes.Equal(fingerprint(t, inc.Best), fingerprint(t, ref.Best)) {
		t.Fatal("best-instance serialization diverged")
	}
	if len(inc.Trace) != len(ref.Trace) {
		t.Fatalf("trace length diverged: %d vs %d", len(inc.Trace), len(ref.Trace))
	}
	for i := range inc.Trace {
		if inc.Trace[i] != ref.Trace[i] {
			t.Fatalf("trace point %d diverged:\nincremental %+v\nreference   %+v", i, inc.Trace[i], ref.Trace[i])
		}
	}
}

func TestRunDeterministic(t *testing.T)                    { runSearchRows(t) }
func TestRunGADeterministic(t *testing.T)                  { runSearchRows(t) }
func TestRunBitIdenticalToReference(t *testing.T)          { runSearchRows(t) }
func TestRunLazyBaselineBitIdentical(t *testing.T)         { runSearchRows(t) }
func TestRunBitIdenticalSharedScratch(t *testing.T)        { runSearchRows(t) }
func TestRunParallelByteIdentical(t *testing.T)            { runSearchRows(t) }
func TestRunParallelSharedScratchReuse(t *testing.T)       { runSearchRows(t) }
func TestRunParallelSingleProc(t *testing.T)               { runSearchRows(t) }
func TestRunParallelTieBreaksToLowestRestart(t *testing.T) { runSearchRows(t) }
func TestRunParallelModesAndPairs(t *testing.T)            { runSearchRows(t) }
func TestRunGABitIdenticalToReference(t *testing.T)        { runSearchRows(t) }
func TestRunGABitIdenticalSharedScratch(t *testing.T)      { runSearchRows(t) }
func TestRunGAParallelByteIdentical(t *testing.T)          { runSearchRows(t) }
func TestRunGAParallelSingleProc(t *testing.T)             { runSearchRows(t) }
func TestRunGAParallelSharedScratchReuse(t *testing.T)     { runSearchRows(t) }
