package serve

// The daemon load harness behind BENCH_serve.json: N concurrent
// clients (≥8) hammer a live server over real localhost HTTP with a
// schedule-heavy mix over a handful of distinct instances, every
// response is verified byte-identical to the direct library path, and
// client-observed latency quantiles (p50/p90/p99) plus throughput and
// the server's own /metrics ledger are reported. Opted in via
// SERVE_BENCH_GATE=1 (wired up as `make bench-serve`, part of `make
// verify`); SERVE_BENCH_OUT=<path> additionally writes the JSON
// artifact committed as BENCH_serve.json — see EXPERIMENTS.md for the
// re-measure protocol.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"saga/internal/scheduler"
	"saga/internal/serialize"
)

type loadResults struct {
	Clients       int     `json:"clients"`
	Requests      int     `json:"requests"`
	ErrorCount    int     `json:"errors"`
	P50MS         float64 `json:"p50_ms"`
	P90MS         float64 `json:"p90_ms"`
	P99MS         float64 `json:"p99_ms"`
	MeanMS        float64 `json:"mean_ms"`
	WallSeconds   float64 `json:"wall_seconds"`
	ThroughputRPS float64 `json:"throughput_rps"`
}

type loadArtifact struct {
	Benchmark string           `json:"benchmark"`
	Workload  string           `json:"workload"`
	Method    string           `json:"method"`
	Host      string           `json:"host"`
	Results   loadResults      `json:"results"`
	Server    *MetricsSnapshot `json:"server_metrics"`
}

func TestServeLoadGate(t *testing.T) {
	if os.Getenv("SERVE_BENCH_GATE") != "1" {
		t.Skip("set SERVE_BENCH_GATE=1 to run the daemon load harness")
	}
	clients := 8
	if v := os.Getenv("SERVE_BENCH_CLIENTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad SERVE_BENCH_CLIENTS %q", v)
		}
		clients = n
	}
	const perClient = 50

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
	res := loadResults{
		Clients:       clients,
		Requests:      len(all),
		ErrorCount:    errCount,
		P50MS:         q(0.50),
		P90MS:         q(0.90),
		P99MS:         q(0.99),
		MeanMS:        float64(sum.Microseconds()) / float64(len(all)) / 1000.0,
		WallSeconds:   wall.Seconds(),
		ThroughputRPS: float64(len(all)) / wall.Seconds(),
	}
	t.Logf("serve load: %d clients x %d requests, p50 %.3fms p90 %.3fms p99 %.3fms mean %.3fms, %.0f req/s",
		clients, perClient, res.P50MS, res.P90MS, res.P99MS, res.MeanMS, res.ThroughputRPS)

	// The gate itself is correctness plus a pathological-regression
	// ceiling: these are sub-millisecond schedules — if the p99 of a
	// local round trip crosses whole seconds, admission or caching broke.
	if res.P99MS > 5000 {
		t.Fatalf("p99 %.1fms: daemon latency pathologically regressed", res.P99MS)
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

	if out := os.Getenv("SERVE_BENCH_OUT"); out != "" {
		artifact := loadArtifact{
			Benchmark: "TestServeLoadGate (internal/serve)",
			Workload:  fmt.Sprintf("%d concurrent clients x %d requests each against a live daemon (httptest over localhost TCP, MaxConcurrent=4): POST /v1/schedule with HEFT over 4 distinct chains instances round-robin, every response byte-verified against the direct library call; cache-hot after the first 4 requests", clients, perClient),
			Method:    "SERVE_BENCH_GATE=1 SERVE_BENCH_OUT=BENCH_serve.json go test -run TestServeLoadGate -count 1 -v ./internal/serve/ (make bench-serve runs the same gate without writing)",
			Host:      hostLine(clients, 4),
			Results:   res,
			Server:    snap,
		}
		data, err := json.MarshalIndent(artifact, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
	}
}

// hostLine describes the measuring host from what the process can see,
// so the artifact never claims a core count the run did not have.
func hostLine(clients, slots int) string {
	procs := runtime.GOMAXPROCS(0)
	cores := "one core"
	if procs > 1 {
		cores = fmt.Sprintf("%d cores", procs)
	}
	return fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d; client-observed latency includes %d clients queueing behind the %d-slot admission pool on %s, so quantiles measure the admission path honestly but throughput is bounded by %s",
		procs, runtime.NumCPU(), clients, slots, cores, cores)
}
