package coord

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"saga/internal/coord/faultinject"
	"saga/internal/datasets"
	"saga/internal/experiments"
	"saga/internal/runner"
	"saga/internal/serialize"
)

// sequentialReference runs the sweep in one process, one worker — the
// ground truth every faulted coordinator run must reproduce byte for
// byte — and returns the sealed store's bytes.
func sequentialReference(t *testing.T, dir, name string, params experiments.SweepParams) []byte {
	t.Helper()
	sw, err := experiments.NewSweep(name, params)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "reference.ckpt")
	ck := serialize.NewCheckpoint(path)
	ck.SetFingerprint(sw.Fingerprint)
	if _, err := ck.Load(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Run(runner.Options{Workers: 1, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Seal(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// faultedRun pre-mounts the sweep on a hub over the store at storePath
// and drives the full protocol over HTTP with one one-shot worker per
// plan — each wrapped in its plan's faulty transport and kill hook —
// and returns the store's bytes after Wait, sealed as `saga coordinate`
// seals it: cells were committed in whatever order the faults let them
// complete, and the sealed form must not show it.
func faultedRun(t *testing.T, storePath, name string, params experiments.SweepParams,
	coordOpts Options, plans []faultinject.Plan) []byte {
	t.Helper()
	h, srv := testHub(t, HubOptions{Sweep: coordOpts})
	store := serialize.NewCheckpoint(storePath)
	c, err := h.Mount(name, params, store)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for i, plan := range plans {
		wg.Add(1)
		go func(i int, plan faultinject.Plan) {
			defer wg.Done()
			err := RunWorker(ctx, srv.URL, WorkerOptions{
				Name:         fmt.Sprintf("w%d", i),
				Client:       &http.Client{Transport: plan.Transport(nil)},
				Workers:      1,
				PollInterval: 20 * time.Millisecond,
				OnCellStored: plan.Hook(),
			})
			// A killed worker's error is the injection working as designed;
			// any other failure is a real protocol bug.
			if err != nil && plan.KillAfterCells <= 0 {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i, plan)
	}
	if err := c.Wait(nil); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wg.Wait()
	if err := store.Seal(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// faultScenarios is the common injection matrix: worker kills
// mid-lease, heartbeats silently dropped (the coordinator reclaims a
// live worker's lease), completions delivered twice, deliveries
// reordered by random delays — under both in-order and shuffled lease
// orders. At least one worker per scenario survives unkilled, so the
// sweep always finishes.
func faultScenarios() []struct {
	label string
	opts  Options
	plans []faultinject.Plan
} {
	short := 400 * time.Millisecond
	return []struct {
		label string
		opts  Options
		plans []faultinject.Plan
	}{
		{
			label: "kill+drop",
			opts:  Options{LeaseSize: 3, LeaseTTL: short, RetryBackoff: 20 * time.Millisecond},
			plans: []faultinject.Plan{
				{KillAfterCells: 2},
				{DropHeartbeats: true},
				{},
			},
		},
		{
			label: "shuffle+dup+delay+kill",
			opts:  Options{LeaseSize: 4, LeaseTTL: short, RetryBackoff: 20 * time.Millisecond, ShuffleSeed: 42},
			plans: []faultinject.Plan{
				{Seed: 1, DuplicateCompletions: true, MaxDelay: 15 * time.Millisecond},
				{Seed: 2, KillAfterCells: 5, MaxDelay: 15 * time.Millisecond},
				{Seed: 3, DropHeartbeats: true, DuplicateCompletions: true},
			},
		},
	}
}

// TestFaultInjectedFig4BitIdentity is the tentpole's proof obligation
// for the paper's main experiment: the full Fig 4 roster (every
// off-diagonal scheduler pair), computed under worker kills, dropped
// heartbeats, duplicated completions, and randomized lease orders,
// lands a store byte-identical to the sequential reference.
func TestFaultInjectedFig4BitIdentity(t *testing.T) {
	params := experiments.SweepParams{Iters: 2, Restarts: 1, Seed: 3}
	dir := t.TempDir()
	ref := sequentialReference(t, dir, "fig4", params)
	for i, sc := range faultScenarios() {
		t.Run(sc.label, func(t *testing.T) {
			got := faultedRun(t, filepath.Join(dir, fmt.Sprintf("run-%d.ckpt", i)), "fig4", params, sc.opts, sc.plans)
			if !bytes.Equal(ref, got) {
				t.Fatalf("store diverged from the sequential reference (%d vs %d bytes)", len(got), len(ref))
			}
		})
	}
}

// TestFaultInjectedRobustnessBitIdentity repeats the proof for the
// second registered sweep class (a sampling loop rather than a PISA
// grid), as the acceptance criteria demand two sweeps.
func TestFaultInjectedRobustnessBitIdentity(t *testing.T) {
	raw, err := serialize.MarshalInstance(datasets.Fig1Instance())
	if err != nil {
		t.Fatal(err)
	}
	params := experiments.SweepParams{N: 18, Seed: 5, Scheduler: "HEFT", Sigma: 0.25, InstanceRaw: raw}
	dir := t.TempDir()
	ref := sequentialReference(t, dir, "robustness", params)
	for i, sc := range faultScenarios() {
		t.Run(sc.label, func(t *testing.T) {
			got := faultedRun(t, filepath.Join(dir, fmt.Sprintf("run-%d.ckpt", i)), "robustness", params, sc.opts, sc.plans)
			if !bytes.Equal(ref, got) {
				t.Fatalf("store diverged from the sequential reference (%d vs %d bytes)", len(got), len(ref))
			}
		})
	}
}

// TestCoordinatorCrashResumeBitIdentity crashes the coordinator
// mid-sweep — modeled exactly: a second coordinator starts on a store
// holding roughly half the cells, the state a killed coordinator's
// incremental writes leave behind — and the finished store still
// matches the reference.
func TestCoordinatorCrashResumeBitIdentity(t *testing.T) {
	raw, err := serialize.MarshalInstance(datasets.Fig1Instance())
	if err != nil {
		t.Fatal(err)
	}
	params := experiments.SweepParams{N: 16, Seed: 8, Scheduler: "CPoP", Sigma: 0.2, InstanceRaw: raw}
	dir := t.TempDir()
	ref := sequentialReference(t, dir, "robustness", params)

	sw, err := experiments.NewSweep("robustness", params)
	if err != nil {
		t.Fatal(err)
	}
	refCk := serialize.NewCheckpoint(filepath.Join(dir, "reference.ckpt"))
	refCk.SetFingerprint(sw.Fingerprint)
	cells, err := refCk.Load()
	if err != nil {
		t.Fatal(err)
	}
	partialPath := filepath.Join(dir, "partial.ckpt")
	partial := serialize.NewCheckpoint(partialPath)
	partial.SetFingerprint(sw.Fingerprint)
	if _, err := partial.Load(); err != nil {
		t.Fatal(err)
	}
	for k, rawCell := range cells {
		if k%2 == 0 {
			if err := partial.Store(k, rawCell); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := faultedRun(t, partialPath, "robustness", params,
		Options{LeaseSize: 3, LeaseTTL: 400 * time.Millisecond},
		[]faultinject.Plan{{KillAfterCells: 3}, {}})
	if !bytes.Equal(ref, got) {
		t.Fatalf("resumed store diverged from the sequential reference (%d vs %d bytes)", len(got), len(ref))
	}
}
