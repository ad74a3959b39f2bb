package coord

import (
	"context"
	"encoding/json"
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
	cells, err := collector.Load()
	if err != nil {
		t.Fatal(err)
	}
	return cells
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
	_, srv := testHub(t, HubOptions{})
	req := RegisterRequest{Name: "pairwise", Params: pairwiseParams()}

	r1 := post[RegisterResponse](t, srv.URL, "/sweeps", req)
	if r1.ID == "" || r1.Existing || r1.Cells != 6 {
		t.Fatalf("first register: %+v", r1)
	}
	if r1.ID != SweepID(r1.Fingerprint) {
		t.Fatalf("sweep id %q is not the fingerprint's content hash %q", r1.ID, SweepID(r1.Fingerprint))
	}
	// The identical request — a concurrent twin daemon, or this daemon
	// re-registering after a hub restart — joins the same sweep.
	r2 := post[RegisterResponse](t, srv.URL, "/sweeps", req)
	if r2.ID != r1.ID || !r2.Existing {
		t.Fatalf("re-register: %+v, want existing id %s", r2, r1.ID)
	}
	// Different parameters mount a different sweep.
	other := req
	other.Params.Seed = 99
	if r3 := post[RegisterResponse](t, srv.URL, "/sweeps", other); r3.ID == r1.ID {
		t.Fatal("distinct parameters landed on the same sweep id")
	}
	// Invalid parameters are refused before anything mounts.
	if _, status := postStatus[RegisterResponse](t, srv.URL, "/sweeps",
		RegisterRequest{Name: "pairwise", Params: experiments.SweepParams{Schedulers: []string{"HEFT"}}}); status != http.StatusBadRequest {
		t.Fatalf("invalid sweep registered: status %d", status)
	}
}

func TestHubRefcountedRelease(t *testing.T) {
	_, srv := testHub(t, HubOptions{})
	req := RegisterRequest{Name: "pairwise", Params: pairwiseParams()}
	id := post[RegisterResponse](t, srv.URL, "/sweeps", req).ID
	post[RegisterResponse](t, srv.URL, "/sweeps", req) // second ref

	del := func() int {
		r, err := http.NewRequest(http.MethodDelete, srv.URL+"/sweeps/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := del(); status != http.StatusOK {
		t.Fatalf("first release: status %d", status)
	}
	// One ref left: the sweep is still mounted and leasable.
	if l := post[LeaseResponse](t, srv.URL, "/sweeps/"+id+"/lease", LeaseRequest{Worker: "w"}); len(l.Cells) == 0 {
		t.Fatalf("sweep unmounted while a client still holds it: %+v", l)
	}
	if status := del(); status != http.StatusOK {
		t.Fatalf("last release: status %d", status)
	}
	// Gone: protocol calls answer 404, telling workers to drop the cells.
	if _, status := postStatus[HeartbeatResponse](t, srv.URL, "/sweeps/"+id+"/heartbeat",
		HeartbeatRequest{Worker: "w", Lease: "whatever"}); status != http.StatusNotFound {
		t.Fatalf("heartbeat on a released sweep: status %d, want 404", status)
	}
	if _, status := postStatus[CompleteResponse](t, srv.URL, "/sweeps/"+id+"/complete",
		CompleteRequest{Worker: "w", Lease: "whatever"}); status != http.StatusNotFound {
		t.Fatalf("complete on a released sweep: status %d, want 404", status)
	}
	if status := del(); status != http.StatusNotFound {
		t.Fatalf("release of an unmounted sweep: status %d, want 404", status)
	}
}

// TestHubPersistWorkersDrainMultipleSweeps is the hub's end-to-end
// proof: two different sweeps mounted concurrently, a persistent fleet
// rotating across both, and each sweep's committed cells byte-identical
// to its sequential in-process reference.
func TestHubPersistWorkersDrainMultipleSweeps(t *testing.T) {
	_, srv := testHub(t, HubOptions{Sweep: Options{LeaseSize: 2, LeaseTTL: 2 * time.Second}})

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
			reg := post[RegisterResponse](t, srv.URL, "/sweeps", RegisterRequest{Name: sw.name, Params: sw.params})
			deadline := time.Now().Add(2 * time.Minute)
			for {
				st := get[Status](t, srv.URL, "/sweeps/"+reg.ID+"/status")
				if st.Done {
					if st.Poisoned != 0 {
						t.Fatalf("poisoned cells in a healthy fleet: %+v", st)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("sweep never finished: %+v", st)
				}
				time.Sleep(10 * time.Millisecond)
			}
			got := get[CellsResponse](t, srv.URL, "/sweeps/"+reg.ID+"/cells")
			assertSameCells(t, want, got.Cells)
			// The fleet heartbeats through ?worker=, so the status a
			// dispatching daemon watches must see live workers.
			if st := get[Status](t, srv.URL, "/sweeps/"+reg.ID+"/status"); st.ActiveWorkers < 2 {
				t.Fatalf("ActiveWorkers = %d, want the whole fleet", st.ActiveWorkers)
			}
		})
	}

	cancel()
	wg.Wait()
}

func TestHubWorkerLivenessAndSweepGC(t *testing.T) {
	clock := newFakeClock()
	_, srv := testHub(t, HubOptions{WorkerTTL: 10 * time.Second, SweepTTL: time.Minute, Now: clock.Now})
	id := post[RegisterResponse](t, srv.URL, "/sweeps", RegisterRequest{Name: "pairwise", Params: pairwiseParams()}).ID

	// A worker's GET /sweep marks it alive until WorkerTTL passes.
	if info := get[SweepInfo](t, srv.URL, "/sweep?worker=w1"); info.ID != id || info.Path != "/sweeps/"+id {
		t.Fatalf("pick: %+v, want sweep %s", info, id)
	}
	if st := get[Status](t, srv.URL, "/status"); st.ActiveWorkers != 1 || st.Sweeps != 1 {
		t.Fatalf("status after worker contact: %+v", st)
	}
	clock.Advance(11 * time.Second)
	if st := get[Status](t, srv.URL, "/status"); st.ActiveWorkers != 0 {
		t.Fatalf("worker still counted after TTL: %+v", st)
	}

	// Touching the sweep (status polls count) defers the GC…
	clock.Advance(50 * time.Second)
	if st := get[Status](t, srv.URL, "/sweeps/"+id+"/status"); st.Done {
		t.Fatalf("untouched sweep: %+v", st)
	}
	// …but a full SweepTTL of silence unmounts it: the leak bound for
	// daemons that crashed between register and release.
	clock.Advance(61 * time.Second)
	if st := get[Status](t, srv.URL, "/status"); st.Sweeps != 0 {
		t.Fatalf("leaked sweep survived its TTL: %+v", st)
	}
	if info := get[SweepInfo](t, srv.URL, "/sweep"); !info.Idle {
		t.Fatalf("pick after GC: %+v, want idle", info)
	}
}

// TestHubRestartSameIDAbsorbsReplayedCompletion models the coordinator
// crash the dispatch layer survives: a fresh hub (restart = empty
// state) mounts the re-registered sweep on the same content-hash id,
// and a worker's completion computed against the old incarnation —
// delivered twice, even — commits into the new one without complaint.
func TestHubRestartSameIDAbsorbsReplayedCompletion(t *testing.T) {
	params := pairwiseParams()
	ref := referenceCells(t, "pairwise", params)

	_, srv1 := testHub(t, HubOptions{})
	id1 := post[RegisterResponse](t, srv1.URL, "/sweeps", RegisterRequest{Name: "pairwise", Params: params}).ID

	// "Restart": a brand-new hub, same registration.
	_, srv2 := testHub(t, HubOptions{})
	id2 := post[RegisterResponse](t, srv2.URL, "/sweeps", RegisterRequest{Name: "pairwise", Params: params}).ID
	if id1 != id2 {
		t.Fatalf("restarted hub minted a different sweep id: %s vs %s", id1, id2)
	}

	// A lease from the *old* incarnation delivers into the new one: the
	// lease is unknown there, but completions are accepted from unknown
	// leases (the cells are position-determined, so they are right).
	lease := post[LeaseResponse](t, srv1.URL, "/sweeps/"+id1+"/lease", LeaseRequest{Worker: "w"})
	cells := map[int]json.RawMessage{}
	for _, k := range lease.Cells {
		cells[k] = ref[k]
	}
	for i := 0; i < 2; i++ { // delivered twice: StoreDedup absorbs the replay
		ack := post[CompleteResponse](t, srv2.URL, "/sweeps/"+id2+"/complete",
			CompleteRequest{Worker: "w", Lease: lease.Lease, Cells: cells})
		if !ack.OK {
			t.Fatalf("delivery %d refused: %+v", i, ack)
		}
	}
	st := get[Status](t, srv2.URL, "/sweeps/"+id2+"/status")
	if st.Committed != len(cells) {
		t.Fatalf("replayed completion committed %d cells, want %d", st.Committed, len(cells))
	}
}
