package coord

// The hub's refusals: malformed frames, out-of-range cells, determinism
// violations, stale leases, unknown sweeps and operations, bad bearers —
// each must answer the documented status without wedging the ledger, and
// each must do so whichever way the sweep reached the hub (eachBacking).
// The happy paths and fault schedules live in coord_test.go /
// fault_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"saga/internal/experiments"
	"saga/internal/serialize"
)

// mountAcquired acquires mountCheckpoint's sweep the way a `saga serve`
// daemon does for a dispatched request; it lands on a MemStore.
func mountAcquired(t *testing.T, n int, opts HubOptions) mounted {
	t.Helper()
	h, srv := testHub(t, opts)
	c, mem, err := h.Acquire("fig7", experiments.SweepParams{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return mounted{root: srv.URL, base: mountURL(srv.URL, c), c: c, mem: mem}
}

// eachBacking runs fn against the sweep mounted both ways.
func eachBacking(t *testing.T, n int, opts HubOptions, fn func(t *testing.T, m mounted)) {
	t.Run("checkpoint", func(t *testing.T) { fn(t, mountCheckpoint(t, n, opts)) })
	t.Run("memstore", func(t *testing.T) { fn(t, mountAcquired(t, n, opts)) })
}

// do sends one request — body marshalled as JSON unless it is already a
// string, bearer attached unless empty — and returns status and body.
func do(t *testing.T, method, url, bearer string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case string:
		rd = strings.NewReader(b)
	default:
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if bearer != "" {
		req.Header.Set("Authorization", "Bearer "+bearer)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestHandlersRejectMalformedJSON(t *testing.T) {
	eachBacking(t, 4, HubOptions{}, func(t *testing.T, m mounted) {
		for _, path := range []string{"/lease", "/heartbeat", "/complete"} {
			for _, body := range []string{`{"worker": `, `]`, `"just a string"`} {
				if got, _ := do(t, http.MethodPost, m.base+path, "", body); got != http.StatusBadRequest {
					t.Errorf("POST %s %q: status %d, want 400", path, body, got)
				}
			}
		}
		// The ledger must be untouched: a full sweep's worth of cells still
		// leasable.
		lease := post[LeaseResponse](t, m.base, "/lease", LeaseRequest{Worker: "w"})
		if len(lease.Cells) != 4 {
			t.Fatalf("after malformed frames, lease granted %v, want all 4 cells", lease.Cells)
		}
	})
}

func TestCompleteRejectsOutOfRangeCells(t *testing.T) {
	cases := []struct {
		name string
		req  CompleteRequest
	}{
		{"committed cell above range", CompleteRequest{Worker: "w", Cells: map[int]json.RawMessage{99: json.RawMessage(`{}`)}}},
		{"committed cell below range", CompleteRequest{Worker: "w", Cells: map[int]json.RawMessage{-1: json.RawMessage(`{}`)}}},
		{"failed cell above range", CompleteRequest{Worker: "w", Failed: map[int]string{99: "boom"}}},
		{"failed cell below range", CompleteRequest{Worker: "w", Failed: map[int]string{-1: "boom"}}},
		// The in-range cell sorts first; it must not be committed before
		// the out-of-range one is noticed.
		{"in-range cell beside one above range", CompleteRequest{Worker: "w",
			Cells: map[int]json.RawMessage{0: cellJSON(0), 99: json.RawMessage(`{}`)}}},
		{"in-range cell beside a failed one above range", CompleteRequest{Worker: "w",
			Cells: map[int]json.RawMessage{0: cellJSON(0)}, Failed: map[int]string{99: "boom"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eachBacking(t, 4, HubOptions{}, func(t *testing.T, m mounted) {
				lease := post[LeaseResponse](t, m.base, "/lease", LeaseRequest{Worker: "w"})
				req := tc.req
				req.Lease = lease.Lease
				if _, status := postStatus[CompleteResponse](t, m.base, "/complete", req); status != http.StatusBadRequest {
					t.Fatalf("status %d, want 400", status)
				}
				// A refused delivery is not fatal, commits nothing and
				// leaves the lease held.
				st := m.c.Status()
				if st.Committed != 0 || st.Poisoned != 0 || st.Done || st.Leased != 4 {
					t.Fatalf("refused delivery moved the ledger: %+v", st)
				}
				if cells := m.stored(t); len(cells) != 0 {
					t.Fatalf("refused delivery reached the store: %v", cells)
				}
			})
		})
	}
}

func TestDisagreeingDuplicateCompletionIsFatal409(t *testing.T) {
	eachBacking(t, 2, HubOptions{}, func(t *testing.T, m mounted) {
		lease := post[LeaseResponse](t, m.base, "/lease", LeaseRequest{Worker: "w1"})

		first := CompleteRequest{Worker: "w1", Lease: lease.Lease,
			Cells: map[int]json.RawMessage{0: json.RawMessage(`{"makespan":1}`)}}
		if resp := post[CompleteResponse](t, m.base, "/complete", first); !resp.OK {
			t.Fatalf("first delivery refused: %+v", resp)
		}

		// An identical duplicate — late redelivery from a reclaimed lease —
		// dedups to a no-op.
		dup := CompleteRequest{Worker: "w2", Lease: "L-gone",
			Cells: map[int]json.RawMessage{0: json.RawMessage(`{"makespan":1}`)}}
		if _, status := postStatus[CompleteResponse](t, m.base, "/complete", dup); status != http.StatusOK {
			t.Fatalf("identical duplicate: status %d, want 200", status)
		}

		// A disagreeing duplicate is a determinism violation: 409, and the
		// sweep parks fatally rather than racing to overwrite.
		bad := CompleteRequest{Worker: "w2", Lease: "L-gone",
			Cells: map[int]json.RawMessage{0: json.RawMessage(`{"makespan":2}`)}}
		if _, status := postStatus[CompleteResponse](t, m.base, "/complete", bad); status != http.StatusConflict {
			t.Fatalf("disagreeing duplicate: status %d, want 409", status)
		}

		// Fatal means done: further leases are turned away and Wait surfaces
		// the violation.
		if l := post[LeaseResponse](t, m.base, "/lease", LeaseRequest{Worker: "w3"}); !l.Done {
			t.Fatalf("lease after fatal: %+v, want Done", l)
		}
		err := m.c.Wait(nil)
		if err == nil || !strings.Contains(err.Error(), "w2") {
			t.Fatalf("Wait after fatal = %v, want the offending worker named", err)
		}
	})
}

func TestHeartbeatStaleLeaseCancels(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	opts := HubOptions{Sweep: Options{LeaseTTL: 10 * time.Second, Now: clock.Now}, Now: clock.Now}
	eachBacking(t, 4, opts, func(t *testing.T, m mounted) {
		// Unknown lease id: cancel immediately.
		hb := post[HeartbeatResponse](t, m.base, "/heartbeat", HeartbeatRequest{Worker: "w", Lease: "L999"})
		if !hb.Cancel || hb.OK {
			t.Fatalf("unknown lease heartbeat: %+v, want Cancel", hb)
		}

		// A live lease renews…
		lease := post[LeaseResponse](t, m.base, "/lease", LeaseRequest{Worker: "w"})
		hb = post[HeartbeatResponse](t, m.base, "/heartbeat", HeartbeatRequest{Worker: "w", Lease: lease.Lease})
		if !hb.OK || hb.Cancel {
			t.Fatalf("live lease heartbeat: %+v, want OK", hb)
		}

		// …until the TTL lapses without one: the lease is reaped and the
		// next heartbeat tells the worker to stop renewing.
		clock.Advance(11 * time.Second)
		hb = post[HeartbeatResponse](t, m.base, "/heartbeat", HeartbeatRequest{Worker: "w", Lease: lease.Lease})
		if !hb.Cancel || hb.OK {
			t.Fatalf("expired lease heartbeat: %+v, want Cancel", hb)
		}

		// The reaped cells are leasable again — expiry is not a failure.
		l2 := post[LeaseResponse](t, m.base, "/lease", LeaseRequest{Worker: "w2"})
		if len(l2.Cells) != 4 {
			t.Fatalf("cells after reap: %v, want all 4 re-leasable", l2.Cells)
		}
	})
}

func TestUnknownSweepAndOperationAnswer404(t *testing.T) {
	eachBacking(t, 4, HubOptions{}, func(t *testing.T, m mounted) {
		gone := m.root + "/sweeps/s0000000000000000"
		for _, rq := range []struct{ method, url string }{
			{http.MethodPost, gone + "/lease"},
			{http.MethodPost, gone + "/heartbeat"},
			{http.MethodPost, gone + "/complete"},
			{http.MethodPost, m.base + "/release"},
			{http.MethodPost, m.root + "/lease"}, // the bare path a sweep used to answer on
		} {
			if status, _ := do(t, rq.method, rq.url, "", `{"worker":"w"}`); status != http.StatusNotFound {
				t.Errorf("%s %s: status %d, want 404", rq.method, rq.url, status)
			}
		}
		if st := m.c.Status(); st.Pending != 4 || st.Leased != 0 {
			t.Fatalf("refused requests moved the ledger: %+v", st)
		}
	})
}

// TestHubBearerAuth: one check, in Hub.ServeHTTP, guards every path —
// the hub's own and every mounted sweep's — and counts each refusal
// exactly once.
func TestHubBearerAuth(t *testing.T) {
	eachBacking(t, 4, HubOptions{Token: "s3cret"}, func(t *testing.T, m mounted) {
		refused := 0
		for _, bearer := range []string{"", "wrong"} {
			for _, rq := range []struct{ method, url string }{
				{http.MethodGet, m.root + "/status"},
				{http.MethodGet, m.root + "/sweep"},
				{http.MethodPost, m.base + "/lease"},
				{http.MethodPost, m.base + "/complete"},
			} {
				if status, _ := do(t, rq.method, rq.url, bearer, `{"worker":"w"}`); status != http.StatusUnauthorized {
					t.Errorf("%s %s with bearer %q: status %d, want 401", rq.method, rq.url, bearer, status)
				}
				refused++
			}
		}
		status, body := do(t, http.MethodGet, m.root+"/status", "s3cret", nil)
		var st Status
		if err := json.Unmarshal(body, &st); status != http.StatusOK || err != nil {
			t.Fatalf("authed status: %d, %v", status, err)
		}
		if st.AuthRejected != uint64(refused) {
			t.Fatalf("AuthRejected = %d, want %d (each refusal counted once)", st.AuthRejected, refused)
		}
		if st.Sweeps != 1 || st.Pending != 4 || st.Leased != 0 {
			t.Fatalf("refused requests moved the ledger: %+v", st)
		}
	})
}

// TestPreMountedSweepOutlivesReleaseAndTTL: the sweep `saga coordinate
// -driver` mounts belongs to the process. No Release and no stretch of
// silence may unmount it or drop its leases.
func TestPreMountedSweepOutlivesReleaseAndTTL(t *testing.T) {
	clock := newFakeClock()
	store := filepath.Join(t.TempDir(), "coord.ckpt")
	h, srv := testHub(t, HubOptions{Now: clock.Now, Sweep: Options{LeaseSize: 2, LeaseTTL: time.Hour, Now: clock.Now}})
	c, err := h.Mount("fig7", experiments.SweepParams{N: 4, Seed: 1}, serialize.NewCheckpoint(store))
	if err != nil {
		t.Fatal(err)
	}
	base := mountURL(srv.URL, c)
	lease := post[LeaseResponse](t, base, "/lease", LeaseRequest{Worker: "w"})
	before := c.Status()

	h.Release(c)
	if _, _, err := h.Acquire("fig7", experiments.SweepParams{N: 4, Seed: 1}); err == nil {
		t.Fatal("a dispatched request joined the pre-mounted sweep")
	}
	clock.Advance(24 * time.Minute)
	if st := get[Status](t, srv.URL, "/status"); st.Sweeps != 1 {
		t.Fatalf("pre-mounted sweep unmounted: %+v", st)
	}
	if info := get[SweepInfo](t, srv.URL, "/sweep"); srv.URL+info.Path != base {
		t.Fatalf("pick: %+v, want the pre-mounted sweep", info)
	}
	if after := c.Status(); after != before {
		t.Fatalf("ledger moved: %+v, was %+v", after, before)
	}
	hb := post[HeartbeatResponse](t, base, "/heartbeat", HeartbeatRequest{Worker: "w", Lease: lease.Lease})
	if !hb.OK {
		t.Fatalf("lease lost: %+v", hb)
	}
}

// TestOneShotWorkerSurvivesHubExit: `saga coordinate -driver` exits the
// moment its sweep completes, so the worker that delivered the last
// cells finds nobody home on its next poll. That is ErrCoordinatorGone —
// the clean stop — while a worker that never reached any hub fails.
func TestOneShotWorkerSurvivesHubExit(t *testing.T) {
	h := NewHub(HubOptions{Sweep: Options{LeaseSize: 2}})
	c, err := h.Mount("fig7", experiments.SweepParams{N: 4, Seed: 1},
		serialize.NewCheckpoint(filepath.Join(t.TempDir(), "coord.ckpt")))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c.Status().Done {
			// The process is gone: drop the connection without an answer.
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err = RunWorker(ctx, srv.URL, WorkerOptions{Name: "w", Workers: 1, PollInterval: 10 * time.Millisecond})
	if !errors.Is(err, ErrCoordinatorGone) {
		t.Fatalf("RunWorker after the hub exited = %v, want ErrCoordinatorGone", err)
	}
	if err := c.Wait(nil); err != nil {
		t.Fatalf("sweep: %v", err)
	}

	err = RunWorker(ctx, srv.URL, WorkerOptions{Name: "late"})
	if err == nil || errors.Is(err, ErrCoordinatorGone) {
		t.Fatalf("RunWorker against a hub it never reached = %v, want a plain failure", err)
	}
}

func TestWorkerRefusesMismatchedSweep(t *testing.T) {
	// Build the true SweepInfo the way a hub would…
	sw, err := experiments.NewSweep("fig7", experiments.SweepParams{N: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	serveInfo := func(info SweepInfo) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /sweep", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, info)
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// …then serve it with a skewed fingerprint: the worker must refuse
	// before computing anything.
	srv := serveInfo(SweepInfo{Name: sw.Name, Params: experiments.SweepParams{N: 4, Seed: 1},
		Fingerprint: sw.Fingerprint + "-skewed", Cells: sw.Cells})
	err = RunWorker(ctx, srv.URL, WorkerOptions{Name: "w"})
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("RunWorker against skewed fingerprint = %v, want fingerprint mismatch", err)
	}

	// Cell-count skew is refused the same way.
	srv = serveInfo(SweepInfo{Name: sw.Name, Params: experiments.SweepParams{N: 4, Seed: 1},
		Fingerprint: sw.Fingerprint, Cells: sw.Cells + 1})
	err = RunWorker(ctx, srv.URL, WorkerOptions{Name: "w"})
	if err == nil || !strings.Contains(err.Error(), "cell count mismatch") {
		t.Fatalf("RunWorker against skewed cell count = %v, want cell count mismatch", err)
	}
}
