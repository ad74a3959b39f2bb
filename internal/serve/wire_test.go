package serve

// The wire path held to what it replaced: the envelope scan against
// json.Unmarshal into the request structs (differentially fuzzed), the
// response writer against httpx.WriteJSON, the cache key against the
// bug it fixes, and the cache-hit request against its allocation
// budget.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"saga/internal/httpx"
	"saga/internal/jsonscan"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	"saga/internal/serialize"
)

// checkEnvelopeAgainstOracle demands of scanEnvelope what json.Unmarshal
// into the request struct gives: the same verdict, the same scalars, the
// same raw payload bytes — and a key that a re-indented copy of the body
// reproduces. A repeated key, which the stdlib merges and the scanner
// refuses, is recognised by asking the scanner first.
func checkEnvelopeAgainstOracle(t *testing.T, body []byte, robustness bool) {
	t.Helper()
	h := sha256.New()
	got, err := scanEnvelope(body, robustness, h)
	if errors.Is(err, jsonscan.ErrDuplicateKey) {
		return
	}
	var want envelope
	var wantErr error
	if robustness {
		var req RobustnessRequest
		wantErr = json.Unmarshal(body, &req)
		want = envelope{req.Scheduler, req.Instance, req.WfC, req.Link, req.CCR, req.Nodes, req.Sigma, req.N, req.Seed}
	} else {
		var req ScheduleRequest
		wantErr = json.Unmarshal(body, &req)
		want = envelope{Scheduler: req.Scheduler, Instance: req.Instance, WfC: req.WfC, Link: req.Link, CCR: req.CCR, Nodes: req.Nodes}
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%.200q (robustness %v):\nscanner error: %v\noracle error:  %v", body, robustness, err, wantErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%.200q (robustness %v):\nscanner decoded %+v\noracle decoded  %+v", body, robustness, got, want)
	}
	key, keyErr := got.finish(h)
	var indented bytes.Buffer
	// No indent string: a newline per token and a space after each colon,
	// without the quadratic output deep nesting would otherwise cost.
	if err := json.Indent(&indented, body, "", ""); err != nil {
		t.Fatal(err)
	}
	again, err := scanEnvelope(indented.Bytes(), robustness, h)
	if err != nil {
		t.Fatalf("%.200q: re-indented copy refused: %v", body, err)
	}
	if againKey, againErr := again.finish(h); againKey != key || (againErr == nil) != (keyErr == nil) {
		t.Fatalf("%.200q: key %x (%v) became %x (%v) on re-indentation", body, key, keyErr, againKey, againErr)
	}
}

var envelopeSeeds = []string{
	``, `null`, `{}`, `[]`, `"x"`,
	`{"scheduler":"HEFT","instance":{"tasks":[{"name":"a","cost":1}],"speeds":[1]}}`,
	`{"scheduler":"HEFT","wfc":{"workflow":{"tasks":[{"name":"a b","runtimeInSeconds":1}]}},"link":2,"ccr":0.5,"nodes":3}`,
	`{"scheduler":"HEFT","instance":{"a":1},"sigma":0.3,"n":25,"seed":7}`,
	`{"SCHEDULER":"x","Instance":[1, 2],"WFC":"w","LINK":1,"Ccr":2,"nodeS":3,"ſigma":1,"N":2,"ſeed":3}`, // U+017F folds to s
	`{"scheduler":null,"instance":null,"wfc":null,"link":null,"ccr":null,"nodes":null,"sigma":null,"n":null,"seed":null}`,
	`{"scheduler":"é😀\ud800","instance":"\ud800"}`,
	"{\"scheduler\":\"\xff\",\"instance\":\"\xff \xc3\"}",
	`{"instance": {"k" : [ 1 , "a  b" , { } ] } , "link" : 1.0}`,
	`{"nodes":1.0}`, `{"nodes":1e2}`, `{"nodes":9223372036854775808}`, `{"nodes":-0}`, `{"nodes":01}`, `{"nodes":"1"}`,
	`{"link":1e999}`, `{"link":-1e999}`, `{"link":"inf"}`, `{"link":"Inf"}`, `{"link":-0}`, `{"link":1e2}`, `{"ccr":true}`,
	`{"seed":-1}`, `{"seed":18446744073709551615}`, `{"seed":18446744073709551616}`, `{"seed":1.0}`, `{"n":1.5}`, `{"sigma":"x"}`,
	`{"scheduler":1}`, `{"scheduler":"a"} x`, `{"scheduler":"a",}`, `{"instance":{"a":}}`, `{"instance":[1,]}`, `{"wfc":tru}`,
	`{"scheduler":"a","scheduler":"b"}`, `{"instance":1,"Instance":2}`,
	`{"other":` + strings.Repeat("[", jsonscan.MaxDepth-1) + strings.Repeat("]", jsonscan.MaxDepth-1) + `}`,
	`{"other":` + strings.Repeat("[", jsonscan.MaxDepth) + strings.Repeat("]", jsonscan.MaxDepth) + `}`,
	`{"instance":` + strings.Repeat("[", jsonscan.MaxDepth) + strings.Repeat("]", jsonscan.MaxDepth) + `}`,
}

func TestScanEnvelopeMatchesOracleOnSeeds(t *testing.T) {
	for _, body := range envelopeSeeds {
		checkEnvelopeAgainstOracle(t, []byte(body), false)
		checkEnvelopeAgainstOracle(t, []byte(body), true)
	}
}

func FuzzScheduleEnvelope(f *testing.F) {
	for _, body := range envelopeSeeds {
		f.Add([]byte(body), false)
		f.Add([]byte(body), true)
	}
	f.Fuzz(checkEnvelopeAgainstOracle)
}

func TestDuplicateEnvelopeKeyIs400(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	inst := testInstance(t, 1)
	for _, path := range []string{"/v1/schedule", "/v1/robustness"} {
		body := fmt.Sprintf(`{"scheduler": "HEFT", "instance": %s, "Scheduler": "CPoP"}`, inst)
		if resp, msg := postRaw(t, ts.URL, path, []byte(body)); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, msg)
		}
	}
}

// TestWfCKnobDefaultsShareOneCacheEntry is the regression test for the
// key being hashed before the import knobs' defaults were applied:
// {"wfc":D} and {"wfc":D,"link":1,"nodes":4} import the same instance
// and must hold one cache entry between them.
func TestWfCKnobDefaultsShareOneCacheEntry(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	const doc = `{"workflow": {"tasks": [{"name": "a", "runtimeInSeconds": 1}, {"name": "b", "runtimeInSeconds": 2, "parents": ["a"]}]}}`
	var answers [][]byte
	for _, body := range []string{
		`{"scheduler": "HEFT", "wfc": ` + doc + `}`,
		`{"scheduler": "HEFT", "wfc": ` + doc + `, "link": 1, "nodes": 4}`,
	} {
		resp, answer := postRaw(t, ts.URL, "/v1/schedule", []byte(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, answer)
		}
		answers = append(answers, answer)
	}
	if !bytes.Equal(answers[0], answers[1]) {
		t.Fatalf("the two spellings were scheduled differently:\n%s\n%s", answers[0], answers[1])
	}
	if c := metricsSnapshot(t, ts.URL).Cache; c.Hits != 1 || c.Misses != 1 || c.Entries != 1 {
		t.Fatalf("cache after the pair: %+v, want 1 hit, 1 miss, 1 entry", c)
	}
	// Knobs that do change the import still get an entry of their own.
	if resp, msg := postRaw(t, ts.URL, "/v1/schedule", []byte(`{"scheduler": "HEFT", "wfc": `+doc+`, "nodes": 2}`)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	if c := metricsSnapshot(t, ts.URL).Cache; c.Entries != 2 {
		t.Fatalf("cache after a different import: %+v, want 2 entries", c)
	}
}

// TestScheduleResponseGolden holds the appended response to the encoder
// it replaced — httpx.WriteJSON over a ScheduleResponse carrying
// MarshalSchedule's output — for every registered scheduler's name and
// for the float shapes encoding/json formats specially.
func TestScheduleResponseGolden(t *testing.T) {
	viaWriteJSON := func(name string, s *schedule.Schedule) []byte {
		raw, err := serialize.MarshalSchedule(s)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		httpx.WriteJSON(rec, ScheduleResponse{Scheduler: name, Makespan: s.Makespan(), Schedule: raw})
		return rec.Body.Bytes()
	}
	names := append(scheduler.Names(), "", `a"b\c`, "<&> ", "café", "\xff")
	ends := []float64{0, math.Copysign(0, -1), 3, 1e21, 1e-7, 123456789.125, 5e-324, math.MaxFloat64}
	for i, name := range names {
		s := &schedule.Schedule{NumNodes: 2}
		if i > 0 { // the first one stays empty: "assignments":null
			s.ByTask = []schedule.Assignment{{Task: 0, Node: 1, Start: 0.5, End: ends[i%len(ends)]}}
		}
		got, err := appendScheduleResponse(nil, name, s)
		if want := viaWriteJSON(name, s); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("scheduler %q: appended %q (%v)\nWriteJSON wrote %q", name, got, err, want)
		}
	}
}

// TestOverflowingInstanceIs400 submits two chained tasks whose finish
// times overflow to +Inf: no node finishes the second "before +Inf", so
// an insertion-based scheduler that met it would index node -1. The
// instance is refused where it enters (graph.Instance.Validate's serial
// bound), under every scheduler, as a 400 — never a dropped connection
// or a 500. The encoder keeps its own refusal of a non-finite time.
func TestOverflowingInstanceIs400(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()
	for _, name := range scheduler.Names() {
		t.Run(name, func(t *testing.T) {
			body := `{"scheduler": "` + name + `", "instance": {"tasks": [{"name": "a", "cost": 1e308}, {"name": "b", "cost": 1e308}],
				"deps": [{"from": 0, "to": 1, "cost": 1}], "speeds": [1]}}`
			resp, msg := postRaw(t, ts.URL, "/v1/schedule", []byte(body))
			if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(msg, []byte("bound")) {
				t.Fatalf("status %d: %s", resp.StatusCode, msg)
			}
		})
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := &schedule.Schedule{NumNodes: 1, ByTask: []schedule.Assignment{{End: bad}}}
		if _, err := appendScheduleResponse(nil, "HEFT", s); err == nil {
			t.Fatalf("a schedule ending at %v was encoded", bad)
		}
	}
}

// scheduleHitAllocBudget is the measured allocations of one cache-hit
// POST /v1/schedule through ServeHTTP on an httptest recorder, plus 2
// (the parent commit measured 56).
const scheduleHitAllocBudget = 29 + 2

// TestScheduleHitAllocs is the allocation gate of the wire path (`make
// bench-serve`): a cache hit reads the body, scans and keys it, leases
// the parked scratch, schedules and appends the response; none of that
// may start allocating per request again.
func TestScheduleHitAllocs(t *testing.T) {
	if os.Getenv("SERVE_BENCH_GATE") != "1" {
		t.Skip("set SERVE_BENCH_GATE=1 to run the cache-hit allocation gate")
	}
	s := New(Options{})
	body := mustMarshal(t, ScheduleRequest{Scheduler: "HEFT", Instance: testInstance(t, 7)})
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/schedule", bytes.NewReader(body)))
		return rec
	}
	if rec := post(); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	allocs := testing.AllocsPerRun(200, func() { post() })
	t.Logf("cache-hit POST /v1/schedule: %.0f allocs/op (budget %d)", allocs, scheduleHitAllocBudget)
	if allocs > scheduleHitAllocBudget {
		t.Fatalf("cache-hit POST /v1/schedule allocates %.0f times, budget %d", allocs, scheduleHitAllocBudget)
	}
	if st := s.cache.stats(); st.Misses != 1 {
		t.Fatalf("the measured requests were not cache hits: %+v", st)
	}
}
