package serve

// Satellite: the scratch-leasing concurrency drill. Many goroutines
// hammer /v1/schedule with a handful of distinct instances; every
// response must byte-equal that instance's precomputed expected bytes.
// Any cross-request state bleed — a scratch carrying another instance's
// tables into a result, a cache entry handing out the wrong instance —
// shows up as a byte mismatch, and the race detector (this package is
// in `make test-race`) catches unsynchronized access on top.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"saga/internal/scheduler"
	"saga/internal/serialize"
)

func TestConcurrentScheduleNoStateBleed(t *testing.T) {
	const nInstances = 6
	const iters = 25

	// The cache is deliberately smaller than the instance set, and the
	// admission bound smaller than the client count, so the test also
	// exercises eviction, re-parse, and queueing under contention.
	s := New(Options{
		MaxConcurrent: 4,
		CacheEntries:  nInstances - 2,
		QueueTimeout:  0, // default 2s: ample for queued requests to drain
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	schedNames := []string{"HEFT", "CPoP"}
	type testCase struct {
		body []byte
		want []byte
	}
	var cases []testCase
	for seed := uint64(1); seed <= nInstances; seed++ {
		instRaw := testInstance(t, seed)
		inst, err := serialize.UnmarshalInstance(instRaw)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range schedNames {
			sched, err := scheduler.New(name)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := scheduler.Schedule(sched, inst)
			if err != nil {
				t.Fatal(err)
			}
			rawSched, err := serialize.MarshalSchedule(direct)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(ScheduleResponse{
				Scheduler: sched.Name(),
				Makespan:  direct.Makespan(),
				Schedule:  rawSched,
			})
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, testCase{
				body: mustMarshal(t, ScheduleRequest{Scheduler: name, Instance: instRaw}),
				want: append(want, '\n'),
			})
		}
	}

	clients := runtime.GOMAXPROCS(0) * 4
	if clients < 8 {
		clients = 8
	}
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Deterministic per-goroutine walk over the cases, each
				// goroutine starting at a different offset so distinct
				// instances are in flight simultaneously.
				tc := cases[(c+i)%len(cases)]
				resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(tc.body))
				if err != nil {
					errc <- err
					return
				}
				var buf bytes.Buffer
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d iter %d: status %d: %s", c, i, resp.StatusCode, buf.Bytes())
					return
				}
				if !bytes.Equal(tc.want, buf.Bytes()) {
					t.Errorf("client %d iter %d: response bytes diverged under concurrency\nwant: %s\ngot:  %s",
						c, i, tc.want, buf.Bytes())
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Sanity on the ledger: every request either leased one scratch or
	// was answered with a stored response, the scheduler ran
	// concurrently at least once per distinct (instance, scheduler) pair,
	// and the pool recycled the scratches it leased.
	snap := metricsSnapshot(t, ts.URL)
	wantReqs := uint64(clients * iters)
	if got := snap.Pool.Leases + snap.Cache.ResponseHits; got != wantReqs {
		t.Fatalf("leases %d + response hits %d = %d, want %d",
			snap.Pool.Leases, snap.Cache.ResponseHits, got, wantReqs)
	}
	if snap.Pool.Leases < uint64(len(cases)) {
		t.Fatalf("leases = %d, fewer than the %d distinct (instance, scheduler) pairs", snap.Pool.Leases, len(cases))
	}
	if snap.Cache.Hits+snap.Cache.Misses != wantReqs {
		t.Fatalf("cache lookups %d+%d don't account for %d requests",
			snap.Cache.Hits, snap.Cache.Misses, wantReqs)
	}
	if snap.Pool.FreshScratches >= wantReqs/2 {
		t.Fatalf("pool minted %d fresh scratches for %d requests; scratch reuse is not happening",
			snap.Pool.FreshScratches, wantReqs)
	}
}
