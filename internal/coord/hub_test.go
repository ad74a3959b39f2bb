package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"saga/internal/datasets"
	"saga/internal/experiments"
	"saga/internal/runner"
	"saga/internal/serialize"
)

func pairwiseParams() experiments.SweepParams {
	return experiments.SweepParams{Iters: 2, Restarts: 1, Seed: 3, Schedulers: []string{"HEFT", "CPoP", "MinMin"}}
}

func robustnessParams(t *testing.T) experiments.SweepParams {
	t.Helper()
	raw, err := serialize.MarshalInstance(datasets.Fig1Instance())
	if err != nil {
		t.Fatal(err)
	}
	return experiments.SweepParams{N: 8, Seed: 5, Scheduler: "HEFT", Sigma: 0.25, InstanceRaw: raw}
}

// referenceCells computes the sweep in-process, sequentially — the cell
// bytes every hub-coordinated run must reproduce exactly.
func referenceCells(t *testing.T, name string, params experiments.SweepParams) map[int]json.RawMessage {
	t.Helper()
	sw, err := experiments.NewSweep(name, params)
	if err != nil {
		t.Fatal(err)
	}
	collector := &collectStore{}
	if err := sw.Run(runner.Options{Workers: 1, Checkpoint: collector}); err != nil {
		t.Fatal(err)
	}
	return collector.cells
}

func assertSameCells(t *testing.T, want, got map[int]json.RawMessage) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("cell count diverged: want %d, got %d", len(want), len(got))
	}
	for k, w := range want {
		if string(got[k]) != string(w) {
			t.Fatalf("cell %d diverged:\nwant %s\ngot  %s", k, w, got[k])
		}
	}
}

func TestHubRegisterIsIdempotentByContentHash(t *testing.T) {
	h, srv := testHub(t, HubOptions{})
	params := pairwiseParams()

	c1, mem1, err := h.Acquire("pairwise", params)
	if err != nil {
		t.Fatal(err)
	}
	info := get[SweepInfo](t, srv.URL, "/sweep")
	if info.ID != sweepID(c1.info.Fingerprint) || info.Cells != 6 {
		t.Fatalf("mounted sweep %+v is not under its fingerprint's content hash %q", info, sweepID(c1.info.Fingerprint))
	}
	// The identical request — a concurrent twin client — joins the same
	// sweep: one ledger, one store.
	c2, mem2, err := h.Acquire("pairwise", params)
	if err != nil || c2 != c1 || mem2 != mem1 {
		t.Fatalf("identical request did not join: ledger %p vs %p, store %p vs %p, %v", c2, c1, mem2, mem1, err)
	}
	// Different parameters mount a different sweep.
	other := params
	other.Seed = 99
	if c3, _, err := h.Acquire("pairwise", other); err != nil || c3 == c1 {
		t.Fatalf("distinct parameters landed on the same sweep (%v)", err)
	}
	if st := get[Status](t, srv.URL, "/status"); st.Sweeps != 2 {
		t.Fatalf("status: %+v, want 2 sweeps", st)
	}
	// Invalid parameters are refused before anything mounts.
	if _, _, err := h.Acquire("pairwise", experiments.SweepParams{Schedulers: []string{"HEFT"}}); err == nil {
		t.Fatal("invalid sweep mounted")
	}
}

func TestHubRefcountedRelease(t *testing.T) {
	h, srv := testHub(t, HubOptions{})
	c, _, err := h.Acquire("pairwise", pairwiseParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Acquire("pairwise", pairwiseParams()); err != nil { // second ref
		t.Fatal(err)
	}
	base := mountURL(srv.URL, c)

	h.Release(c)
	// One ref left: the sweep is still mounted and leasable.
	if l := post[LeaseResponse](t, base, "/lease", LeaseRequest{Worker: "w"}); len(l.Cells) == 0 {
		t.Fatalf("sweep unmounted while a client still holds it: %+v", l)
	}
	h.Release(c)
	// Gone: protocol calls answer 404, telling workers to drop the cells,
	// and whoever still waited on the ledger learns it was aborted.
	if _, status := postStatus[HeartbeatResponse](t, base, "/heartbeat",
		HeartbeatRequest{Worker: "w", Lease: "whatever"}); status != http.StatusNotFound {
		t.Fatalf("heartbeat on a released sweep: status %d, want 404", status)
	}
	if _, status := postStatus[CompleteResponse](t, base, "/complete",
		CompleteRequest{Worker: "w", Lease: "whatever"}); status != http.StatusNotFound {
		t.Fatalf("complete on a released sweep: status %d, want 404", status)
	}
	if err := c.Wait(nil); !errors.Is(err, ErrAborted) {
		t.Fatalf("Wait on a released sweep = %v, want ErrAborted", err)
	}
	if st := get[Status](t, srv.URL, "/status"); st.Sweeps != 0 {
		t.Fatalf("released sweep still mounted: %+v", st)
	}
}

// TestHubPersistWorkersDrainMultipleSweeps is the hub's end-to-end
// proof: two different sweeps mounted concurrently, a persistent fleet
// rotating across both, and each sweep's committed cells byte-identical
// to its sequential in-process reference.
func TestHubPersistWorkersDrainMultipleSweeps(t *testing.T) {
	h, srv := testHub(t, HubOptions{Sweep: Options{LeaseSize: 2, LeaseTTL: 2 * time.Second}})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := RunWorker(ctx, srv.URL, WorkerOptions{
				Name: fmt.Sprintf("fleet-%d", i), Workers: 1, Persist: true,
				PollInterval: 10 * time.Millisecond,
			})
			if err != nil && ctx.Err() == nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	// Wait for the whole fleet to call in before mounting anything: a
	// sweep this small can otherwise be finished by the first worker
	// before the second has polled once.
	for deadline := time.Now().Add(10 * time.Second); h.ActiveWorkers() < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("ActiveWorkers = %d after 10s, want the whole fleet", h.ActiveWorkers())
		}
	}

	sweeps := []struct {
		name   string
		params experiments.SweepParams
	}{
		{"pairwise", pairwiseParams()},
		{"robustness", robustnessParams(t)},
	}
	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) {
			want := referenceCells(t, sw.name, sw.params)
			c, mem, err := h.Acquire(sw.name, sw.params)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Release(c)
			timeout := make(chan struct{})
			timer := time.AfterFunc(2*time.Minute, func() { close(timeout) })
			defer timer.Stop()
			if err := c.Wait(timeout); err != nil {
				t.Fatalf("sweep in a healthy fleet: %v (%+v)", err, c.Status())
			}
			got, _ := mem.Load()
			assertSameCells(t, want, got)
			// The fleet calls in through ?worker=, which is what a
			// dispatching daemon watches.
			if n := h.ActiveWorkers(); n < 2 {
				t.Fatalf("ActiveWorkers = %d, want the whole fleet", n)
			}
		})
	}

	cancel()
	wg.Wait()
}

// TestHubWorkerLiveness: a worker counts as active from any call that
// names it until WorkerTTL passes without another.
func TestHubWorkerLiveness(t *testing.T) {
	clock := newFakeClock()
	h, srv := testHub(t, HubOptions{WorkerTTL: 10 * time.Second, Now: clock.Now})
	if n := h.ActiveWorkers(); n != 0 {
		t.Fatalf("ActiveWorkers on a fresh hub = %d", n)
	}
	c, _, err := h.Acquire("pairwise", pairwiseParams())
	if err != nil {
		t.Fatal(err)
	}

	if info := get[SweepInfo](t, srv.URL, "/sweep?worker=w1"); srv.URL+info.Path != mountURL(srv.URL, c) {
		t.Fatalf("pick: %+v, want the acquired sweep", info)
	}
	if st := get[Status](t, srv.URL, "/status"); st.ActiveWorkers != 1 || st.Sweeps != 1 || h.ActiveWorkers() != 1 {
		t.Fatalf("status after worker contact: %+v", st)
	}
	clock.Advance(9 * time.Second)
	post[LeaseResponse](t, mountURL(srv.URL, c), "/lease?worker=w2", LeaseRequest{Worker: "w2"})
	clock.Advance(2 * time.Second)
	if n := h.ActiveWorkers(); n != 1 {
		t.Fatalf("ActiveWorkers = %d, want only the worker that leased 2s ago", n)
	}
	clock.Advance(9 * time.Second)
	if st := get[Status](t, srv.URL, "/status"); st.ActiveWorkers != 0 || h.ActiveWorkers() != 0 {
		t.Fatalf("workers still counted after TTL: %+v", st)
	}
}

// TestHubRestartSameIDAbsorbsReplayedCompletion: a daemon that restarts
// loses its sweeps, but the client's retried request mounts the same
// content-hash id on the fresh hub, and a worker's completion computed
// against the old incarnation — delivered twice, even — commits into
// the new one without complaint.
func TestHubRestartSameIDAbsorbsReplayedCompletion(t *testing.T) {
	params := pairwiseParams()
	ref := referenceCells(t, "pairwise", params)

	h1, srv1 := testHub(t, HubOptions{})
	c1, _, err := h1.Acquire("pairwise", params)
	if err != nil {
		t.Fatal(err)
	}
	// "Restart": a brand-new hub, same request.
	h2, srv2 := testHub(t, HubOptions{})
	c2, _, err := h2.Acquire("pairwise", params)
	if err != nil {
		t.Fatal(err)
	}
	id := sweepID(c1.info.Fingerprint)
	if mountURL(srv2.URL, c2) != srv2.URL+"/sweeps/"+id {
		t.Fatalf("restarted hub minted a different sweep id than %s", id)
	}

	// A lease from the *old* incarnation delivers into the new one: the
	// lease is unknown there, but completions are accepted from unknown
	// leases (the cells are position-determined, so they are right).
	lease := post[LeaseResponse](t, mountURL(srv1.URL, c1), "/lease", LeaseRequest{Worker: "w"})
	cells := map[int]json.RawMessage{}
	for _, k := range lease.Cells {
		cells[k] = ref[k]
	}
	for i := 0; i < 2; i++ { // delivered twice: StoreDedup absorbs the replay
		ack := post[CompleteResponse](t, mountURL(srv2.URL, c2), "/complete",
			CompleteRequest{Worker: "w", Lease: lease.Lease, Cells: cells})
		if !ack.OK {
			t.Fatalf("delivery %d refused: %+v", i, ack)
		}
	}
	if st := c2.Status(); st.Committed != len(cells) {
		t.Fatalf("replayed completion committed %d cells, want %d", st.Committed, len(cells))
	}
}
