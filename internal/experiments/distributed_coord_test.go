// The coordinator extension of the distributed protocol lives in
// internal/coord, which imports this package for the sweep registry —
// so its determinism coverage here runs as an external test package.
package experiments_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"saga/internal/coord"
	"saga/internal/coord/faultinject"
	"saga/internal/experiments"
	"saga/internal/runner"
	"saga/internal/serialize"
)

// TestCoordinatedSweepRandomLeaseOrderBitIdentity is the dynamic-lease
// extension of the shard-union determinism tests above (satellite of
// the coordinator PR): the same registered sweep, run through the full
// coordinator protocol — randomized lease orders, several workers, one
// of them killed mid-lease — must land a checkpoint store byte-identical
// to the sequential single-process reference, for every shuffle seed.
func TestCoordinatedSweepRandomLeaseOrderBitIdentity(t *testing.T) {
	params := experiments.SweepParams{N: 16, Seed: 6}
	sw, err := experiments.NewSweep("fig7", params)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	refPath := filepath.Join(dir, "reference.ckpt")
	refCk := serialize.NewCheckpoint(refPath)
	refCk.SetFingerprint(sw.Fingerprint)
	if _, err := refCk.Load(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Run(runner.Options{Workers: 1, Checkpoint: refCk}); err != nil {
		t.Fatal(err)
	}
	if err := refCk.Seal(); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, shuffleSeed := range []uint64{0, 3, 17} {
		t.Run(fmt.Sprintf("shuffle=%d", shuffleSeed), func(t *testing.T) {
			storePath := filepath.Join(dir, fmt.Sprintf("coord-%d.ckpt", shuffleSeed))
			hub := coord.NewHub(coord.HubOptions{Sweep: coord.Options{
				LeaseSize:   3,
				LeaseTTL:    300 * time.Millisecond,
				ShuffleSeed: shuffleSeed,
			}})
			store := serialize.NewCheckpoint(storePath)
			c, err := hub.Mount("fig7", params, store)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(hub)
			defer srv.Close()

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			plans := []faultinject.Plan{
				{KillAfterCells: 2}, // dies mid-lease; its cells get reclaimed
				{Seed: shuffleSeed + 1, MaxDelay: 10 * time.Millisecond},
				{},
			}
			var wg sync.WaitGroup
			for i, plan := range plans {
				wg.Add(1)
				go func(i int, plan faultinject.Plan) {
					defer wg.Done()
					err := coord.RunWorker(ctx, srv.URL, coord.WorkerOptions{
						Name:         fmt.Sprintf("w%d", i),
						Client:       &http.Client{Transport: plan.Transport(nil)},
						Workers:      1,
						PollInterval: 20 * time.Millisecond,
						OnCellStored: plan.Hook(),
					})
					if err != nil && plan.KillAfterCells <= 0 {
						t.Errorf("worker %d: %v", i, err)
					}
				}(i, plan)
			}
			if err := c.Wait(nil); err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			wg.Wait()
			// Commits landed in completion order; sealed, as `saga
			// coordinate` seals a finished sweep, the order must not show.
			if err := store.Seal(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(storePath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, got) {
				t.Fatalf("coordinated store diverged from the sequential reference (%d vs %d bytes)", len(got), len(ref))
			}
			// And the coordinated store is interchangeable with the static
			// protocol: a single-process resume loads every cell.
			ck := serialize.NewCheckpoint(storePath)
			ck.SetFingerprint(sw.Fingerprint)
			computed := false
			err = sw.Run(runner.Options{Checkpoint: ck, Progress: func(done, total int) {
				if done != total {
					computed = true
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			if computed {
				t.Fatal("resume from the coordinated store recomputed cells")
			}
		})
	}
}
