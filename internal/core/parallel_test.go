package core

import (
	"bytes"
	"runtime"
	"testing"

	"saga/internal/datasets"
	"saga/internal/scheduler"
	_ "saga/internal/schedulers"
)

// workerCounts is the width panel: 0 and −1 (both clamp to one worker),
// one worker, two, NumCPU, and an over-provisioned count that exercises
// the clamp to the work size. Byte-identity must hold for every entry.
func workerCounts() []int {
	return []int{-1, 0, 1, 2, runtime.NumCPU(), 64}
}

// TestRunParallelByteIdentical is the width gate: for several scheduler
// pairs, Run at every worker count produces byte-identical Results —
// fingerprint, trace, restart ratios, evaluation counts — to the
// cache-disabled copy-and-rebuild reference.
func TestRunParallelByteIdentical(t *testing.T) {
	pairs := [][2]string{{"HEFT", "CPoP"}, {"MinMin", "MaxMin"}}
	for _, pair := range pairs {
		t.Run(pair[0]+"-vs-"+pair[1], func(t *testing.T) {
			opts := testOptions(uint64(41 + len(pair[0])))
			opts.Restarts = 4
			opts.RecordTrace = true
			ref, err := RunReference(mustSched(t, pair[0]), mustSched(t, pair[1]), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts() {
				opts.Workers = w
				got, err := Run(mustSched(t, pair[0]), mustSched(t, pair[1]), opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				assertResultsIdentical(t, got, ref)
			}
		})
	}
}

// TestRunParallelSharedScratchReuse re-runs a wide Run three times
// through one caller scratch (the sweep-worker calling convention): the
// caller's scratch and the pooled per-worker scratches are reused, and
// reuse must not perturb results.
func TestRunParallelSharedScratchReuse(t *testing.T) {
	opts := testOptions(97)
	opts.Restarts = 3
	opts.RecordTrace = true
	ref, err := RunReference(mustSched(t, "HEFT"), mustSched(t, "CPoP"), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Scratch = scheduler.NewScratch()
	opts.Workers = 3
	for i := 0; i < 3; i++ {
		got, err := Run(mustSched(t, "HEFT"), mustSched(t, "CPoP"), opts)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, got, ref)
	}
}

// TestRunParallelSingleProc pins determinism under GOMAXPROCS=1: with
// only one OS thread the chains interleave cooperatively in whatever
// order the runtime schedules them, and the canonical merge must still
// reproduce the reference bit for bit.
func TestRunParallelSingleProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opts := testOptions(7)
	opts.Restarts = 4
	opts.RecordTrace = true
	ref, err := RunReference(mustSched(t, "HEFT"), mustSched(t, "CPoP"), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	got, err := Run(mustSched(t, "HEFT"), mustSched(t, "CPoP"), opts)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, got, ref)
}

// TestRunParallelTieBreaksToLowestRestart forces every chain to the
// same best ratio — an identical scheduler as its own baseline pins
// every candidate to ratio 1 — so the merged winner is decided purely
// by the tie rule. Strict improvement in restart order keeps restart
// 0's instance; the merge must return that fingerprint for every worker
// count (a last-wins or racy merge would surface some other restart's
// initial instance).
func TestRunParallelTieBreaksToLowestRestart(t *testing.T) {
	opts := testOptions(13)
	opts.Restarts = 4
	ref, err := RunReference(mustSched(t, "HEFT"), mustSched(t, "HEFT"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.BestRatio != 1 {
		t.Fatalf("self-pair best ratio = %v, want exactly 1", ref.BestRatio)
	}
	for _, ratio := range ref.RestartRatios {
		if ratio != 1 {
			t.Fatalf("restart ratios %v not all tied at 1", ref.RestartRatios)
		}
	}
	// The tie must be decided in favor of restart 0: its chain's best is
	// its initial instance, which differs from every other restart's.
	r0opts := opts
	r0opts.Restarts = 1
	r0, err := Run(mustSched(t, "HEFT"), mustSched(t, "HEFT"), r0opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fingerprint(t, ref.Best), fingerprint(t, r0.Best)) {
		t.Fatal("reference tie-break did not keep restart 0's instance")
	}
	for _, w := range workerCounts() {
		opts.Workers = w
		got, err := Run(mustSched(t, "HEFT"), mustSched(t, "HEFT"), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		assertResultsIdentical(t, got, ref)
	}
}

// TestRunGAParallelByteIdentical is the GA half of the width gate: RunGA
// at every worker count must match the clone-and-full-Prepare reference
// bit for bit. It is also the proof that building each child's tables
// once after mutation equals the reference's full rebuild per
// evaluation.
func TestRunGAParallelByteIdentical(t *testing.T) {
	opts := gaTestOptions(59)
	ref, err := RunGAReference(mustSched(t, "HEFT"), mustSched(t, "CPoP"), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		opts.Workers = w
		got, err := RunGA(mustSched(t, "HEFT"), mustSched(t, "CPoP"), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		assertResultsIdentical(t, got, ref)
	}
}

// TestRunGAParallelSingleProc is the GA analogue of the GOMAXPROCS=1
// determinism pin.
func TestRunGAParallelSingleProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opts := gaTestOptions(61)
	ref, err := RunGAReference(mustSched(t, "ETF"), mustSched(t, "HEFT"), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = runtime.NumCPU() + 2
	got, err := RunGA(mustSched(t, "ETF"), mustSched(t, "HEFT"), opts)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, got, ref)
}

// TestRunGAParallelSharedScratchReuse mirrors the annealer's pooled
// scratch reuse test for the GA.
func TestRunGAParallelSharedScratchReuse(t *testing.T) {
	opts := gaTestOptions(67)
	ref, err := RunGAReference(mustSched(t, "GDL"), mustSched(t, "BIL"), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Scratch = scheduler.NewScratch()
	opts.Workers = 4
	for i := 0; i < 3; i++ {
		got, err := RunGA(mustSched(t, "GDL"), mustSched(t, "BIL"), opts)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, got, ref)
	}
}

// TestRunParallelModesAndPairs sweeps the full perturbation-mode ×
// scheduler-pair panel of the incremental suite at two workers,
// anchoring the wide path to the reference across every operator
// family.
func TestRunParallelModesAndPairs(t *testing.T) {
	pairs := [][2]string{{"ETF", "HEFT"}, {"GDL", "BIL"}, {"HEFT", "FastestNode"}}
	for mode, p := range incrementalModes() {
		for _, pair := range pairs {
			t.Run(mode+"/"+pair[0]+"-vs-"+pair[1], func(t *testing.T) {
				opts := testOptions(uint64(len(mode) + len(pair[0])*31))
				opts.Restarts = 3
				opts.Perturb = p
				opts.InitialInstance = datasets.InitialPISAInstance
				ref, err := RunReference(mustSched(t, pair[0]), mustSched(t, pair[1]), opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Workers = 2
				got, err := Run(mustSched(t, pair[0]), mustSched(t, pair[1]), opts)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsIdentical(t, got, ref)
			})
		}
	}
}
