package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"saga/internal/coord"
	"saga/internal/coord/faultinject"
	"saga/internal/httpx"
)

// --- dispatch harness --------------------------------------------------

// startDaemon serves a daemon; its fleet attaches at hubURL.
func startDaemon(t *testing.T, opts Options) (s *Server, url, hubURL string) {
	t.Helper()
	s = New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts.URL, ts.URL + "/hub"
}

// startWorker runs one persistent fleet member until ctx is cancelled
// (or its fault plan kills it — both are expected exits here).
func startWorker(ctx context.Context, wg *sync.WaitGroup, hubURL, name string, plan faultinject.Plan) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = coord.RunWorker(ctx, hubURL, coord.WorkerOptions{
			Name:         name,
			Workers:      1,
			Persist:      true,
			PollInterval: 10 * time.Millisecond,
			Client:       &http.Client{Transport: plan.Transport(nil)},
			OnCellStored: plan.Hook(),
		})
	}()
}

// pollAs is one worker poll under the given name: it marks the name
// alive on the hub for DegradeWindow and returns what the hub would hand
// it. A "worker" that only ever polls is a live fleet that computes
// nothing.
func pollAs(t *testing.T, hubURL, name string) coord.SweepInfo {
	t.Helper()
	resp, err := http.Get(hubURL + "/sweep?worker=" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info coord.SweepInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func hubStatus(t *testing.T, hubURL string) coord.Status {
	t.Helper()
	resp, err := http.Get(hubURL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st coord.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitHub(t *testing.T, hubURL string, ok func(coord.Status) bool, what string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := hubStatus(t, hubURL); ok(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("hub never reached %s: %+v", what, hubStatus(t, hubURL))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitMetrics(t *testing.T, url string, ok func(*MetricsSnapshot) bool, what string) *MetricsSnapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := metricsSnapshot(t, url)
		if ok(snap) {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reached %s: %+v", what, snap)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// postCancelable fires a request the test can abandon mid-flight; done
// receives the client-side outcome.
func postCancelable(t *testing.T, url, path string, body []byte) (cancel context.CancelFunc, done <-chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	ch := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		ch <- err
	}()
	return cancel, ch
}

// postResult is a goroutine-safe postRaw: no t.Fatal off the test
// goroutine.
type postResult struct {
	status int
	body   []byte
	err    error
}

func postAsync(url, path string, body []byte) <-chan postResult {
	return postAsyncWith(http.DefaultClient, url, path, body)
}

func postAsyncWith(client *http.Client, url, path string, body []byte) <-chan postResult {
	ch := make(chan postResult, 1)
	go func() {
		resp, err := client.Post(url+path, "application/json", bytes.NewReader(body))
		if err != nil {
			ch <- postResult{err: err}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		ch <- postResult{status: resp.StatusCode, body: buf.Bytes(), err: err}
	}()
	return ch
}

var wfcFixture = json.RawMessage(`{
	"name": "diamond",
	"schemaVersion": "1.4",
	"workflow": {
		"tasks": [
			{"name": "a", "id": "a", "runtimeInSeconds": 1, "parents": []},
			{"name": "b", "id": "b", "runtimeInSeconds": 2, "parents": ["a"]},
			{"name": "c", "id": "c", "runtimeInSeconds": 3, "parents": ["a"]},
			{"name": "d", "id": "d", "runtimeInSeconds": 1, "parents": ["b", "c"]}
		],
		"machines": [
			{"nodeName": "m0", "speed": 1},
			{"nodeName": "m1", "speed": 2}
		]
	}
}`)

// --- the suite ---------------------------------------------------------

// TestDispatchByteIdentity is the tentpole contract: a daemon with a
// live fleet under /hub answers portfolio and robustness requests
// (raw-instance and WfCommons alike) byte-for-byte identically to a
// fleetless daemon — while holding zero admission slots, since the
// cells are computed by the fleet.
func TestDispatchByteIdentity(t *testing.T) {
	disp, dispURL, hubURL := startDaemon(t, Options{MaxConcurrent: 1, DegradeWindow: 30 * time.Second})
	_, localURL, _ := startDaemon(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	startWorker(ctx, &wg, hubURL, "w0", faultinject.Plan{})
	startWorker(ctx, &wg, hubURL, "w1", faultinject.Plan{})
	waitHub(t, hubURL, func(st coord.Status) bool { return st.ActiveWorkers == 2 }, "2 attached workers")

	// Occupy the dispatching daemon's only compute slot for the whole
	// test: dispatched requests must not need it.
	disp.sem <- struct{}{}
	defer func() { <-disp.sem }()

	reqs := []struct {
		name, path string
		body       []byte
	}{
		{"portfolio", "/v1/portfolio", mustMarshal(t, PortfolioRequest{
			Schedulers: []string{"HEFT", "CPoP", "MinMin"}, K: 2, Iters: 40, Restarts: 1, Seed: 7})},
		{"robustness-instance", "/v1/robustness", mustMarshal(t, RobustnessRequest{
			Scheduler: "HEFT", Instance: testInstance(t, 11), Sigma: 0.3, N: 24, Seed: 9})},
		{"robustness-wfc", "/v1/robustness", mustMarshal(t, RobustnessRequest{
			Scheduler: "CPoP", WfC: wfcFixture, Link: 1, Sigma: 0.2, N: 16, Seed: 4})},
	}
	for _, rq := range reqs {
		t.Run(rq.name, func(t *testing.T) {
			wantResp, want := postRaw(t, localURL, rq.path, rq.body)
			if wantResp.StatusCode != http.StatusOK {
				t.Fatalf("local twin: status %d: %s", wantResp.StatusCode, want)
			}
			gotResp, got := postRaw(t, dispURL, rq.path, rq.body)
			if gotResp.StatusCode != http.StatusOK {
				t.Fatalf("dispatched: status %d: %s", gotResp.StatusCode, got)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("dispatched response diverged from local:\nlocal      %s\ndispatched %s", want, got)
			}
		})
	}

	snap := metricsSnapshot(t, dispURL)
	if snap.Dispatch.Dispatched != uint64(len(reqs)) {
		t.Fatalf("dispatched = %d, want %d", snap.Dispatch.Dispatched, len(reqs))
	}
	if len(snap.Dispatch.Degraded) != 0 {
		t.Fatalf("healthy fleet degraded: %v", snap.Dispatch.Degraded)
	}
	// Every sweep was released once its request was answered.
	waitHub(t, hubURL, func(st coord.Status) bool { return st.Sweeps == 0 }, "0 sweeps")
}

// TestDispatchChaosSurvivesFleetFailure drives concurrent requests
// through every fleet failure the dispatch layer claims to survive: one
// worker is killed mid-lease, one drops every heartbeat, one delivers
// every completion twice — and each response must still be
// byte-identical to local execution, with zero degradations.
func TestDispatchChaosSurvivesFleetFailure(t *testing.T) {
	// The window is also the lease lifetime: the killed worker's cells
	// come back to the survivors after one of it.
	_, dispURL, hubURL := startDaemon(t, Options{DegradeWindow: time.Second})
	_, localURL, _ := startDaemon(t, Options{})

	reqs := []struct {
		name, path string
		body       []byte
	}{
		{"portfolio-a", "/v1/portfolio", mustMarshal(t, PortfolioRequest{
			Schedulers: []string{"HEFT", "CPoP", "MinMin"}, K: 2, Iters: 60, Restarts: 1, Seed: 13})},
		{"portfolio-b", "/v1/portfolio", mustMarshal(t, PortfolioRequest{
			Schedulers: []string{"HEFT", "CPoP", "ETF"}, K: 2, Iters: 60, Restarts: 1, Seed: 29})},
		{"robustness-a", "/v1/robustness", mustMarshal(t, RobustnessRequest{
			Scheduler: "HEFT", Instance: testInstance(t, 17), Sigma: 0.25, N: 60, Seed: 3})},
		{"robustness-b", "/v1/robustness", mustMarshal(t, RobustnessRequest{
			Scheduler: "MinMin", Instance: testInstance(t, 23), Sigma: 0.4, N: 60, Seed: 5})},
	}
	// Reference answers first, from the untouched local twin.
	want := make([][]byte, len(reqs))
	for i, rq := range reqs {
		resp, body := postRaw(t, localURL, rq.path, rq.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("local twin %s: status %d: %s", rq.name, resp.StatusCode, body)
		}
		want[i] = body
	}

	// The misbehaving fleet: one worker dies after two cells, one never
	// heartbeats (a lease it held too long would expire and reassign),
	// one delivers everything twice, one is healthy. Delays shuffle
	// deliveries.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	startWorker(ctx, &wg, hubURL, "w-kill", faultinject.Plan{Seed: 1, MaxDelay: 2 * time.Millisecond, KillAfterCells: 2})
	startWorker(ctx, &wg, hubURL, "w-mute", faultinject.Plan{Seed: 2, MaxDelay: 2 * time.Millisecond, DropHeartbeats: true})
	startWorker(ctx, &wg, hubURL, "w-dup", faultinject.Plan{Seed: 3, MaxDelay: 2 * time.Millisecond, DuplicateCompletions: true})
	startWorker(ctx, &wg, hubURL, "w-ok", faultinject.Plan{})
	waitHub(t, hubURL, func(st coord.Status) bool { return st.ActiveWorkers == 4 }, "4 attached workers")

	results := make([]<-chan postResult, len(reqs))
	for i, rq := range reqs {
		results[i] = postAsync(dispURL, rq.path, rq.body)
	}
	for i, rq := range reqs {
		res := <-results[i]
		if res.err != nil {
			t.Fatalf("%s: %v", rq.name, res.err)
		}
		if res.status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", rq.name, res.status, res.body)
		}
		if !bytes.Equal(res.body, want[i]) {
			t.Fatalf("%s diverged under chaos:\nlocal      %s\ndispatched %s", rq.name, want[i], res.body)
		}
	}

	snap := metricsSnapshot(t, dispURL)
	if snap.Dispatch.Dispatched != uint64(len(reqs)) {
		t.Fatalf("dispatched = %d, want %d (degraded: %v)", snap.Dispatch.Dispatched, len(reqs), snap.Dispatch.Degraded)
	}
	if len(snap.Dispatch.Degraded) != 0 {
		t.Fatalf("chaos forced degradation: %v", snap.Dispatch.Degraded)
	}
	waitHub(t, hubURL, func(st coord.Status) bool { return st.Sweeps == 0 }, "0 sweeps after drain")
}

// TestDispatchClientDisconnectReleasesSweep: cancellation propagates
// from the client's socket to the hub — the sweep is released so
// workers' heartbeats answer 404 and the cells are dropped, and the
// daemon's gauges return to idle.
func TestDispatchClientDisconnectReleasesSweep(t *testing.T) {
	_, dispURL, hubURL := startDaemon(t, Options{DegradeWindow: 30 * time.Second})
	// A fleet that is alive but computes nothing: the sweep mounts and
	// sits until the client walks away mid-request.
	pollAs(t, hubURL, "idler")

	cancel, done := postCancelable(t, dispURL, "/v1/portfolio", mustMarshal(t, PortfolioRequest{
		Schedulers: []string{"HEFT", "CPoP", "MinMin"}, K: 2, Iters: 50, Restarts: 1, Seed: 21}))
	waitHub(t, hubURL, func(st coord.Status) bool { return st.Sweeps == 1 }, "1 mounted sweep")
	sweep := pollAs(t, hubURL, "idler")
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled request reported success")
	}

	waitHub(t, hubURL, func(st coord.Status) bool { return st.Sweeps == 0 }, "sweep released after disconnect")
	hb, err := http.Post(hubURL+sweep.Path+"/heartbeat", "application/json", strings.NewReader(`{"worker":"idler","lease":"L1"}`))
	if err != nil {
		t.Fatal(err)
	}
	hb.Body.Close()
	if hb.StatusCode != http.StatusNotFound {
		t.Fatalf("heartbeat on the released sweep: status %d, want 404", hb.StatusCode)
	}
	snap := waitMetrics(t, dispURL, func(m *MetricsSnapshot) bool {
		return m.Dispatch.Canceled == 1 && m.Admission.Inflight == 0
	}, "idle after the disconnect")
	if snap.Dispatch.Dispatched != 0 || len(snap.Dispatch.Degraded) != 0 {
		t.Fatalf("cancellation misclassified: %+v", snap.Dispatch)
	}
}

// TestDispatchIdenticalRequestsShareOneSweep: two clients asking the
// same question are one sweep on the hub, and the first one hanging up
// takes only its own reference — the second still gets its answer from
// the fleet.
func TestDispatchIdenticalRequestsShareOneSweep(t *testing.T) {
	joined := make(chan struct{}, 1)
	_, dispURL, hubURL := startDaemon(t, Options{DegradeWindow: 30 * time.Second,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "joined") {
				select {
				case joined <- struct{}{}:
				default:
				}
			}
		}})
	_, localURL, _ := startDaemon(t, Options{})
	body := mustMarshal(t, PortfolioRequest{
		Schedulers: []string{"HEFT", "CPoP", "MinMin"}, K: 2, Iters: 40, Restarts: 1, Seed: 33})
	_, want := postRaw(t, localURL, "/v1/portfolio", body)

	pollAs(t, hubURL, "idler")
	cancelFirst, firstDone := postCancelable(t, dispURL, "/v1/portfolio", body)
	waitHub(t, hubURL, func(st coord.Status) bool { return st.Sweeps == 1 }, "the first request's sweep")
	second := postAsync(dispURL, "/v1/portfolio", body)
	select {
	case <-joined:
	case <-time.After(30 * time.Second):
		t.Fatal("the identical request never joined the mounted sweep")
	}
	cancelFirst()
	if err := <-firstDone; err == nil {
		t.Fatal("cancelled request reported success")
	}
	waitMetrics(t, dispURL, func(m *MetricsSnapshot) bool { return m.Dispatch.Canceled == 1 }, "the first client's cancel")
	if st := hubStatus(t, hubURL); st.Sweeps != 1 {
		t.Fatalf("the first client's cancel unmounted the shared sweep: %+v", st)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	startWorker(ctx, &wg, hubURL, "w0", faultinject.Plan{})
	res := <-second
	if res.err != nil || res.status != http.StatusOK {
		t.Fatalf("surviving request: status %d, %v: %s", res.status, res.err, res.body)
	}
	if !bytes.Equal(res.body, want) {
		t.Fatalf("shared sweep diverged from local:\nlocal  %s\nshared %s", want, res.body)
	}
	if snap := metricsSnapshot(t, dispURL); snap.Dispatch.Dispatched != 1 || len(snap.Dispatch.Degraded) != 0 {
		t.Fatalf("dispatch accounting: %+v", snap.Dispatch)
	}
}

// TestWorkerlessDaemonAnswersLocally: dispatch is not a mode. A daemon
// no worker ever called computes at once — no sweep mounted, no wait,
// nothing counted as degraded.
func TestWorkerlessDaemonAnswersLocally(t *testing.T) {
	const window = 5 * time.Second
	_, dispURL, hubURL := startDaemon(t, Options{DegradeWindow: window})
	_, localURL, _ := startDaemon(t, Options{})

	body := mustMarshal(t, PortfolioRequest{
		Schedulers: []string{"HEFT", "CPoP"}, K: 1, Iters: 30, Restarts: 1, Seed: 2})
	_, want := postRaw(t, localURL, "/v1/portfolio", body)
	start := time.Now()
	resp, got := postRaw(t, dispURL, "/v1/portfolio", body)
	if took := time.Since(start); took >= window {
		t.Fatalf("a worker-less daemon sat out %s before answering", took)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(want, got) {
		t.Fatalf("status %d:\nlocal %s\ngot   %s", resp.StatusCode, want, got)
	}
	snap := metricsSnapshot(t, dispURL)
	if snap.Dispatch.Dispatched != 0 || len(snap.Dispatch.Degraded) != 0 {
		t.Fatalf("a worker-less daemon dispatched: %+v", snap.Dispatch)
	}
	if st := hubStatus(t, hubURL); st.Sweeps != 0 || st.ActiveWorkers != 0 {
		t.Fatalf("hub of a worker-less daemon: %+v", st)
	}
}

// TestDispatchDegradesToLocalWhenNoWorkers: a capacity drought is never
// a client error — once the fleet has been silent for DegradeWindow the
// daemon computes locally, answers identically, counts the fallback,
// and gives the sweep back.
func TestDispatchDegradesToLocalWhenNoWorkers(t *testing.T) {
	_, dispURL, hubURL := startDaemon(t, Options{DegradeWindow: 150 * time.Millisecond})
	_, localURL, _ := startDaemon(t, Options{})

	body := mustMarshal(t, PortfolioRequest{
		Schedulers: []string{"HEFT", "CPoP"}, K: 1, Iters: 30, Restarts: 1, Seed: 2})
	_, want := postRaw(t, localURL, "/v1/portfolio", body)

	// The fleet calls in until the sweep is mounted, then goes silent.
	pollAs(t, hubURL, "fader")
	res := postAsync(dispURL, "/v1/portfolio", body)
	for deadline := time.Now().Add(30 * time.Second); pollAs(t, hubURL, "fader").Idle; {
		if time.Now().After(deadline) {
			t.Fatal("the request was never dispatched to the polling fleet")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got := <-res
	if got.err != nil || got.status != http.StatusOK {
		t.Fatalf("degraded request failed the client: status %d, %v: %s", got.status, got.err, got.body)
	}
	if !bytes.Equal(want, got.body) {
		t.Fatalf("degraded response diverged from local:\nlocal    %s\ndegraded %s", want, got.body)
	}

	snap := metricsSnapshot(t, dispURL)
	if snap.Dispatch.Degraded["no-workers"] != 1 || snap.Dispatch.Dispatched != 0 {
		t.Fatalf("degradation not accounted: %+v", snap.Dispatch)
	}
	waitHub(t, hubURL, func(st coord.Status) bool { return st.Sweeps == 0 }, "sweep released after degrade")
}

// TestDaemonBearerAuth: with -token set, every endpoint except /healthz
// — the fleet's /hub/ included — refuses tokenless callers, rejections
// are counted, and the thin client's Token field opens the door.
func TestDaemonBearerAuth(t *testing.T) {
	s := New(Options{Token: "hunter2"})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := postRaw(t, ts.URL, "/v1/schedule",
		mustMarshal(t, ScheduleRequest{Scheduler: "HEFT", Instance: testInstance(t, 2)}))
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless schedule: status %d: %s", resp.StatusCode, body)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless metrics: status %d", mresp.StatusCode)
	}
	// A tokenless worker is turned away by the daemon's one check, before
	// the hub could count it as fleet.
	wresp, err := http.Get(ts.URL + "/hub/sweep?worker=stranger")
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusUnauthorized || s.hub.ActiveWorkers() != 0 {
		t.Fatalf("tokenless worker poll: status %d, %d workers counted", wresp.StatusCode, s.hub.ActiveWorkers())
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz must stay open for probes: status %d", hresp.StatusCode)
	}

	c := &Client{BaseURL: ts.URL, Token: "hunter2"}
	out, err := c.Schedule(context.Background(), ScheduleRequest{Scheduler: "HEFT", Instance: testInstance(t, 2)})
	if err != nil || out.Makespan <= 0 {
		t.Fatalf("authed client: %+v, %v", out, err)
	}
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.AuthRejected != 3 {
		t.Fatalf("auth_rejected = %d, want 3", snap.AuthRejected)
	}
	// With the token a worker gets in: an idle hub, and it counts.
	werr := coord.RunWorker(context.Background(), ts.URL+"/hub",
		coord.WorkerOptions{Name: "member", Client: httpx.NewBearerClient(nil, "hunter2")})
	if werr != nil || s.hub.ActiveWorkers() != 1 {
		t.Fatalf("authed worker: %v, %d workers counted", werr, s.hub.ActiveWorkers())
	}
}

// TestAdmissionSaturationShedsAndDrains is the sweep-endpoint twin of
// TestAdmissionSaturation: with every compute slot held, local
// portfolio and robustness requests queue, shed with 503 after
// QueueTimeout, and once the slot frees the daemon drains back to a
// zero inflight gauge.
func TestAdmissionSaturationShedsAndDrains(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, QueueTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	portfolio := mustMarshal(t, PortfolioRequest{Schedulers: []string{"HEFT", "CPoP"}, K: 1, Iters: 20, Restarts: 1, Seed: 8})
	robustness := mustMarshal(t, RobustnessRequest{Scheduler: "HEFT", Instance: testInstance(t, 7), Sigma: 0.2, N: 10, Seed: 3})

	s.sem <- struct{}{} // saturate the only compute slot
	shed := []<-chan postResult{
		postAsync(ts.URL, "/v1/portfolio", portfolio),
		postAsync(ts.URL, "/v1/robustness", robustness),
	}
	for i, ch := range shed {
		res := <-ch
		if res.err != nil {
			t.Fatalf("request %d: %v", i, res.err)
		}
		if res.status != http.StatusServiceUnavailable {
			t.Fatalf("request %d admitted past a full pool: status %d: %s", i, res.status, res.body)
		}
		if !bytes.Contains(res.body, []byte("saturated")) {
			t.Fatalf("request %d 503 body should say why: %s", i, res.body)
		}
	}
	<-s.sem

	for _, rq := range []struct {
		path string
		body []byte
	}{
		{"/v1/portfolio", portfolio}, {"/v1/robustness", robustness},
	} {
		if resp, body := postRaw(t, ts.URL, rq.path, rq.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s after drain: status %d: %s", rq.path, resp.StatusCode, body)
		}
	}

	snap := metricsSnapshot(t, ts.URL)
	if snap.Admission.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", snap.Admission.Rejected)
	}
	if snap.Admission.Inflight != 0 {
		t.Fatalf("inflight gauge stuck at %d after drain", snap.Admission.Inflight)
	}
}
