package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	_ "saga/internal/schedulers" // register the scheduler names requests use
	"saga/internal/serialize"
)

// testInstance renders a small chains instance to its serialize JSON.
func testInstance(t *testing.T, seed uint64) []byte {
	t.Helper()
	g, err := datasets.New("chains")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := serialize.MarshalInstance(g(rng.New(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func postRaw(t *testing.T, url, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestScheduleEndpointAndCache(t *testing.T) {
	s := New(Options{MaxConcurrent: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	inst := testInstance(t, 7)
	body := mustMarshal(t, ScheduleRequest{Scheduler: "HEFT", Instance: inst})

	resp, first := postRaw(t, ts.URL, "/v1/schedule", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, first)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(first, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Scheduler != "HEFT" || sr.Makespan <= 0 || len(sr.Schedule) == 0 {
		t.Fatalf("implausible response: %+v", sr)
	}
	if _, err := serialize.UnmarshalSchedule(sr.Schedule); err != nil {
		t.Fatalf("response schedule does not round-trip: %v", err)
	}

	// The identical submission again: byte-identical answer, cache hit.
	resp, second := postRaw(t, ts.URL, "/v1/schedule", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp.StatusCode)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("repeated submission changed the response bytes:\n%s\nvs\n%s", first, second)
	}
	// Same instance re-indented: still one cache entry (compacted key).
	var indented bytes.Buffer
	if err := json.Indent(&indented, inst, "", "    "); err != nil {
		t.Fatal(err)
	}
	resp, third := postRaw(t, ts.URL, "/v1/schedule",
		mustMarshal(t, ScheduleRequest{Scheduler: "HEFT", Instance: indented.Bytes()}))
	if resp.StatusCode != http.StatusOK || !bytes.Equal(first, third) {
		t.Fatalf("re-indented submission diverged (status %d)", resp.StatusCode)
	}

	st := s.cache.stats()
	if st.Entries != 1 {
		t.Fatalf("want 1 cache entry, got %+v", st)
	}
	if st.Hits < 2 {
		t.Fatalf("cache hits not counted: %+v", st)
	}
}

// TestScheduleResponseContentLength: every /v1/schedule answer carries
// its length, so one over net/http's 2 KiB buffer is not sent chunked.
// The four posts of a body over that size are a miss, a hit that
// schedules and stores its answer, a repeat answered by the body's hash
// and a respelled repeat answered through the scan: the first two write
// freshly encoded bytes, the last two stored ones.
func TestScheduleResponseContentLength(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	g := graph.NewTaskGraph()
	for i := 0; i < 60; i++ {
		g.AddTask(fmt.Sprintf("t%d", i), 1+float64(i%7))
		if i > 0 {
			g.MustAddDep(i-1, i, 0.5)
		}
	}
	raw, err := serialize.MarshalInstance(graph.NewInstance(g, graph.NewNetwork(3)))
	if err != nil {
		t.Fatal(err)
	}
	body := mustMarshal(t, ScheduleRequest{Scheduler: "HEFT", Instance: raw})
	respelled := append(append([]byte(nil), body...), ' ')
	for i, b := range [][]byte{body, body, body, respelled} {
		resp, got := postRaw(t, ts.URL, "/v1/schedule", b)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post %d: status %d: %s", i, resp.StatusCode, got)
		}
		if len(got) <= 2048 {
			t.Fatalf("post %d: a %d-byte answer does not exceed net/http's buffer", i, len(got))
		}
		if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("post %d: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				i, resp.ContentLength, resp.TransferEncoding, len(got))
		}
	}
	if st := s.cache.stats(); st.Misses != 1 || st.ResponseHits != 2 || st.BodyHits != 1 {
		t.Fatalf("the posts were not a miss, a scheduling hit and two stored answers: %+v", st)
	}
}

func TestWfCommonsSubmission(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	wfcDoc := []byte(`{
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
	resp, body := postRaw(t, ts.URL, "/v1/schedule",
		mustMarshal(t, ScheduleRequest{Scheduler: "HEFT", WfC: wfcDoc, Link: 1}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Makespan <= 0 {
		t.Fatalf("wfc import produced makespan %v", sr.Makespan)
	}
}

// TestRequestErrorPaths is the table-driven reject suite: every
// client-attributable defect answers 400 (or the method/path statuses
// the mux owns), never a 500 and never a hang.
func TestRequestErrorPaths(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	inst := testInstance(t, 1)

	cases := []struct {
		name   string
		path   string
		body   string
		status int
	}{
		{"malformed json", "/v1/schedule", `{"scheduler": "HEFT", `, http.StatusBadRequest},
		{"no instance", "/v1/schedule", `{"scheduler": "HEFT"}`, http.StatusBadRequest},
		{"unknown scheduler", "/v1/schedule", fmt.Sprintf(`{"scheduler": "NOPE", "instance": %s}`, inst), http.StatusBadRequest},
		{"instance and wfc both", "/v1/schedule", fmt.Sprintf(`{"scheduler": "HEFT", "instance": %s, "wfc": {"workflow":{}}}`, inst), http.StatusBadRequest},
		{"bad instance payload", "/v1/schedule", `{"scheduler": "HEFT", "instance": {"tasks": "nope"}}`, http.StatusBadRequest},
		{"bad wfc payload", "/v1/schedule", `{"scheduler": "HEFT", "wfc": {"workflow": {"tasks": []}}}`, http.StatusBadRequest},
		{"portfolio too few schedulers", "/v1/portfolio", `{"schedulers": ["HEFT"], "k": 1}`, http.StatusBadRequest},
		{"portfolio k out of range", "/v1/portfolio", `{"schedulers": ["HEFT", "CPoP"], "k": 3}`, http.StatusBadRequest},
		{"portfolio unknown member", "/v1/portfolio", `{"schedulers": ["HEFT", "NOPE"], "k": 1}`, http.StatusBadRequest},
		{"portfolio over iters budget", "/v1/portfolio", `{"schedulers": ["HEFT", "CPoP"], "k": 1, "iters": 100001}`, http.StatusBadRequest},
		{"robustness malformed", "/v1/robustness", `]`, http.StatusBadRequest},
		{"robustness unknown scheduler", "/v1/robustness", fmt.Sprintf(`{"scheduler": "NOPE", "instance": %s}`, inst), http.StatusBadRequest},
		{"robustness sigma out of range", "/v1/robustness", fmt.Sprintf(`{"scheduler": "HEFT", "instance": %s, "sigma": 99}`, inst), http.StatusBadRequest},
		{"robustness n over budget", "/v1/robustness", fmt.Sprintf(`{"scheduler": "HEFT", "instance": %s, "n": 100001}`, inst), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRaw(t, ts.URL, tc.path, []byte(tc.body))
			if resp.StatusCode != tc.status {
				t.Fatalf("want %d, got %d: %s", tc.status, resp.StatusCode, body)
			}
		})
	}

	t.Run("unknown path", func(t *testing.T) {
		resp, _ := postRaw(t, ts.URL, "/v1/nonsense", []byte(`{}`))
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("want 404, got %d", resp.StatusCode)
		}
	})
	t.Run("wrong method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/schedule")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("want 405, got %d", resp.StatusCode)
		}
	})
}

// TestAdmissionSaturation proves the bounded pool sheds load: with the
// single slot held, a request waits QueueTimeout and is refused with
// 503; once the slot frees, the identical request succeeds.
func TestAdmissionSaturation(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, QueueTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := mustMarshal(t, ScheduleRequest{Scheduler: "HEFT", Instance: testInstance(t, 3)})

	s.sem <- struct{}{} // occupy the only slot
	start := time.Now()
	resp, msg := postRaw(t, ts.URL, "/v1/schedule", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503 while saturated, got %d: %s", resp.StatusCode, msg)
	}
	if waited := time.Since(start); waited < 40*time.Millisecond {
		t.Fatalf("refused after %v without honoring the queue timeout", waited)
	}
	if !strings.Contains(string(msg), "saturated") {
		t.Fatalf("503 body should say why: %q", msg)
	}
	<-s.sem

	resp, _ = postRaw(t, ts.URL, "/v1/schedule", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after slot freed: status %d", resp.StatusCode)
	}

	snap := metricsSnapshot(t, ts.URL)
	if snap.Admission.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", snap.Admission.Rejected)
	}
	if snap.Admission.MaxConcurrent != 1 {
		t.Fatalf("max_concurrent = %d, want 1", snap.Admission.MaxConcurrent)
	}
}

func metricsSnapshot(t *testing.T, url string) *MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return &snap
}

// TestMetricsSnapshotShape sends one request of each way a /v1/schedule
// request is answered — a miss, a hit that schedules and stores its
// answer, a repeat answered by its body's hash, and a respelled repeat
// answered through the scan — plus a malformed one, and holds the
// snapshot to them: every answer is counted once in the phases, and
// either leased a scratch or was a stored response.
func TestMetricsSnapshotShape(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := mustMarshal(t, ScheduleRequest{Scheduler: "HEFT", Instance: testInstance(t, 5)})
	respelled := append(append([]byte(nil), body...), ' ')
	answers := [][]byte{body, body, body, respelled}
	for i, b := range answers {
		if resp, _ := postRaw(t, ts.URL, "/v1/schedule", b); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d failed", i)
		}
	}
	postRaw(t, ts.URL, "/v1/schedule", []byte(`{`)) // one malformed → error counter
	answered := uint64(len(answers))

	snap := metricsSnapshot(t, ts.URL)
	es, ok := snap.Endpoints["schedule"]
	if !ok {
		t.Fatalf("no schedule endpoint stats: %+v", snap)
	}
	if es.Count != answered+1 || es.Errors != 1 {
		t.Fatalf("schedule stats count=%d errors=%d, want %d/1", es.Count, es.Errors, answered+1)
	}
	if es.P50MS <= 0 || es.P99MS < es.P50MS {
		t.Fatalf("latency quantiles implausible: %+v", es)
	}
	// The third and fourth requests are answered with the response the
	// second stored: they lease nothing, and neither does the malformed
	// one.
	if snap.Pool.Leases != 2 || snap.Cache.ResponseHits != 2 || snap.Pool.Leases+snap.Cache.ResponseHits != answered {
		t.Fatalf("pool leases = %d, response hits = %d, want 2 + 2 = %d answered requests", snap.Pool.Leases, snap.Cache.ResponseHits, answered)
	}
	if snap.Cache.Misses != 1 || snap.Cache.Hits != 3 || snap.Cache.BodyHits != 1 {
		t.Fatalf("cache stats: %+v", snap.Cache)
	}
	if snap.UptimeSeconds <= 0 {
		t.Fatalf("uptime %v", snap.UptimeSeconds)
	}
	// The phase split covers the answered requests; only the miss
	// decoded, so decode is the one phase that may be small but not zero.
	ph := es.Phases
	if ph == nil || ph.Count != answered {
		t.Fatalf("schedule phases: %+v, want a count of %d", ph, answered)
	}
	for name, ns := range map[string]uint64{"read": ph.ReadNS, "scan_key": ph.ScanKeyNS, "decode": ph.DecodeNS, "schedule": ph.ScheduleNS, "encode": ph.EncodeNS} {
		if ns == 0 || ns > uint64(time.Minute) {
			t.Fatalf("phase %s accumulated %d ns: %+v", name, ns, ph)
		}
	}
	if total := float64(ph.ReadNS+ph.ScanKeyNS+ph.DecodeNS+ph.ScheduleNS+ph.EncodeNS) / 1e6; total > es.MeanMS*float64(es.Count) {
		t.Fatalf("phases sum to %.3f ms, more than the %.3f ms the endpoint spent in all", total, es.MeanMS*float64(es.Count))
	}
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestCacheEviction sends only misses, 48 times as many as the cache
// holds, and checks that LRU eviction keeps it bounded while every
// response stays correct, and that each request's scratch goes back to
// the pool for the next miss instead of being dropped.
func TestCacheEviction(t *testing.T) {
	const entries, requests = 2, 96
	s := New(Options{CacheEntries: entries})
	ts := httptest.NewServer(s)
	defer ts.Close()
	for seed := uint64(1); seed <= requests; seed++ {
		body := mustMarshal(t, ScheduleRequest{Scheduler: "HEFT", Instance: testInstance(t, seed)})
		if resp, msg := postRaw(t, ts.URL, "/v1/schedule", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, msg)
		}
	}
	snap := metricsSnapshot(t, ts.URL)
	if st := snap.Cache; st.Entries > entries || st.Evictions != requests-entries {
		t.Fatalf("cache after %d misses into %d entries: %+v", requests, entries, st)
	}
	// Without the race detector this reads 2. With it, sync.Pool drops a
	// quarter of what it is given, and thirty runs read 16 to 34, so the
	// bound of 48 leaves room for that; the parent read 96.
	if p := snap.Pool; p.Leases != requests || p.FreshScratches >= requests/2 {
		t.Fatalf("%d fresh scratches over %d leases: evicted entries' scratches are not reused", p.FreshScratches, p.Leases)
	}
}
