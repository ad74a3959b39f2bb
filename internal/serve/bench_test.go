package serve

// The daemon load harness: 8 concurrent clients hammer a live server
// over real localhost HTTP with a schedule-heavy mix over a handful of
// distinct instances, every response is verified byte-identical to the
// direct library path, client-observed latency quantiles (p50/p90/p99)
// and throughput are logged, and the server's own /metrics ledger must
// agree with the harness's tally. Opted in via SERVE_BENCH_GATE=1 (wired up as `make
// bench-serve`, part of `make verify`); EXPERIMENTS.md ("The scheduling
// daemon load test") records measured values.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"saga/internal/scheduler"
	"saga/internal/serialize"
)

func TestServeLoadGate(t *testing.T) {
	if os.Getenv("SERVE_BENCH_GATE") != "1" {
		t.Skip("set SERVE_BENCH_GATE=1 to run the daemon load harness")
	}
	const clients, perClient = 8, 50

	// QueueTimeout is generous: under a saturating load test every
	// request should queue and finish, not shed.
	s := New(Options{MaxConcurrent: 4, QueueTimeout: 60 * time.Second})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Four distinct instances, expected bytes precomputed: the harness
	// verifies while it measures.
	type testCase struct {
		body []byte
		want []byte
	}
	var cases []testCase
	for seed := uint64(1); seed <= 4; seed++ {
		instRaw := testInstance(t, seed)
		inst, err := serialize.UnmarshalInstance(instRaw)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := scheduler.New("HEFT")
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
			body: mustMarshal(t, ScheduleRequest{Scheduler: "HEFT", Instance: instRaw}),
			want: append(want, '\n'),
		})
	}

	latencies := make([][]time.Duration, clients)
	errs := make([]int, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < perClient; i++ {
				tc := cases[(c+i)%len(cases)]
				t0 := time.Now()
				resp, err := client.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(tc.body))
				if err != nil {
					errs[c]++
					continue
				}
				var buf bytes.Buffer
				_, rerr := buf.ReadFrom(resp.Body)
				resp.Body.Close()
				d := time.Since(t0)
				if rerr != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(tc.want, buf.Bytes()) {
					errs[c]++
					continue
				}
				latencies[c] = append(latencies[c], d)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	var all []time.Duration
	errCount := 0
	for c := 0; c < clients; c++ {
		all = append(all, latencies[c]...)
		errCount += errs[c]
	}
	if errCount > 0 {
		t.Fatalf("%d of %d requests failed or returned wrong bytes under load", errCount, clients*perClient)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	q := func(p float64) float64 {
		idx := int(p * float64(len(all)-1))
		return float64(all[idx].Microseconds()) / 1000.0
	}
	var sum time.Duration
	for _, d := range all {
		sum += d
	}
	p99 := q(0.99)
	t.Logf("serve load: %d clients x %d requests, p50 %.3fms p90 %.3fms p99 %.3fms mean %.3fms, %.0f req/s",
		clients, perClient, q(0.50), q(0.90), p99, float64(sum.Microseconds())/float64(len(all))/1000.0,
		float64(len(all))/wall.Seconds())

	// The gate itself is correctness plus a pathological-regression
	// ceiling: these are sub-millisecond schedules — if the p99 of a
	// local round trip crosses whole seconds, admission or caching broke.
	if p99 > 5000 {
		t.Fatalf("p99 %.1fms: daemon latency pathologically regressed", p99)
	}
	snap := metricsSnapshot(t, ts.URL)
	wantReqs := uint64(clients * perClient)
	if snap.Endpoints["schedule"].Count != wantReqs || snap.Endpoints["schedule"].Errors != 0 {
		t.Fatalf("server ledger disagrees with the harness: %+v (want %d clean requests)",
			snap.Endpoints["schedule"], wantReqs)
	}
	if snap.Cache.Hits+snap.Cache.Misses != wantReqs || snap.Cache.Hits < wantReqs/2 {
		t.Fatalf("cache ledger implausible for a 4-instance load: %+v", snap.Cache)
	}
}
