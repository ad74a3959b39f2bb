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
	"runtime"
	"strings"
	"testing"

	"saga/internal/datasets"
	"saga/internal/httpx"
	"saga/internal/jsonscan"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	"saga/internal/serialize"
	"saga/internal/wfc"
)

// checkEnvelopeAgainstOracle demands of scanEnvelope what json.Unmarshal
// into the request struct gives: the same verdict, the same scalars, the
// same raw payload bytes — and a key that a re-indented copy of the body
// reproduces. A repeated key, which the stdlib merges and the scanner
// refuses, is recognised by asking the scanner first. A schedule body is
// also held to the two-pass path the one pass replaced
// (checkAgainstTwoPass).
func checkEnvelopeAgainstOracle(t *testing.T, body []byte, robustness bool) {
	t.Helper()
	e := scheduleEnvelope
	if robustness {
		e = robustnessEnvelope
	} else {
		checkAgainstTwoPass(t, body)
	}
	ws := &wireState{h: sha256.New()}
	got, err := scanEnvelope(body, e, ws)
	if errors.Is(err, jsonscan.ErrDuplicateKey) {
		return
	}
	var want RobustnessRequest
	var wantErr error
	if robustness {
		// The request the daemon decodes into: a key the body leaves out
		// or sends as null keeps its default, an explicit 0 is a value.
		want = robustnessDefaults
		wantErr = json.Unmarshal(body, &want)
	} else {
		var req ScheduleRequest
		wantErr = json.Unmarshal(body, &req)
		want = RobustnessRequest{Scheduler: req.Scheduler, Instance: req.Instance, WfC: req.WfC, Link: req.Link, CCR: req.CCR, Nodes: req.Nodes}
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
	keyErr := got.finish(ws)
	key := ws.key
	var indented bytes.Buffer
	// No indent string: a newline per token and a space after each colon,
	// without the quadratic output deep nesting would otherwise cost.
	if err := json.Indent(&indented, body, "", ""); err != nil {
		t.Fatal(err)
	}
	again, err := scanEnvelope(indented.Bytes(), e, ws)
	if err != nil {
		t.Fatalf("%.200q: re-indented copy refused: %v", body, err)
	}
	if againErr := again.finish(ws); ws.key != key || (againErr == nil) != (keyErr == nil) {
		t.Fatalf("%.200q: key %x (%v) became %x (%v) on re-indentation", body, key, keyErr, ws.key, againErr)
	}
}

var envelopeSeeds = []string{
	``, `null`, `{}`, `[]`, `"x"`,
	`{"scheduler":"HEFT","instance":{"tasks":[{"name":"a","cost":1}],"speeds":[1]}}`,
	`{"scheduler":"HEFT","wfc":{"workflow":{"tasks":[{"name":"a b","runtimeInSeconds":1}]}},"link":2,"ccr":0.5,"nodes":3}`,
	`{"scheduler":"HEFT","instance":{"a":1},"sigma":0.3,"n":25,"seed":7}`,
	`{"SCHEDULER":"x","Instance":[1, 2],"WFC":"w","LINK":1,"Ccr":2,"nodeS":3,"ſigma":1,"N":2,"ſeed":3}`, // U+017F folds to s
	`{"scheduler":null,"instance":null,"wfc":null,"link":null,"ccr":null,"nodes":null,"sigma":null,"n":null,"seed":null}`,
	`{"scheduler":"HEFT","instance":{"a":1},"sigma":0,"n":0,"seed":0}`, `{"sigma":0}`, `{"n":0}`, `{"seed":0}`,
	`{"sigma":null,"n":0}`, `{"n":null,"seed":0}`, `{"seed":null,"sigma":0}`, `{"sigma":-0}`,
	`{"scheduler":"é😀\ud800","instance":"\ud800"}`,
	"{\"scheduler\":\"\xff\",\"instance\":\"\xff \xc3\"}",
	`{"instance": {"k" : [ 1 , "a  b" , { } ] } , "link" : 1.0}`,
	`{"nodes":1.0}`, `{"nodes":1e2}`, `{"nodes":9223372036854775808}`, `{"nodes":-0}`, `{"nodes":01}`, `{"nodes":"1"}`,
	`{"link":1e999}`, `{"link":-1e999}`, `{"link":"inf"}`, `{"link":"Inf"}`, `{"link":-0}`, `{"link":1e2}`, `{"ccr":true}`,
	`{"seed":-1}`, `{"seed":18446744073709551615}`, `{"seed":18446744073709551616}`, `{"seed":1.0}`, `{"n":1.5}`, `{"sigma":"x"}`,
	`{"scheduler":1}`, `{"scheduler":"a"} x`, `{"scheduler":"a",}`, `{"instance":{"a":}}`, `{"instance":[1,]}`, `{"wfc":tru}`,
	`{"scheduler":"a","scheduler":"b"}`, `{"instance":1,"Instance":2}`,
	// Payloads the envelope accepts and a miss refuses: ill-typed, null,
	// refused with an envelope fault behind them, and paired.
	`{"scheduler":"HEFT","instance":{"tasks":"x","speeds":[1]}}`, `{"scheduler":"HEFT","wfc":{"workflow":{"tasks":[{"name":1}]}}}`,
	`{"scheduler":"HEFT","instance":{"tasks":[{"name":"a","cost":"1"}],"speeds":[1]},"link":}`,
	`{"scheduler":"HEFT","wfc":[1,2],"nodes":2,}`,
	`{"scheduler":"HEFT","instance":null}`, `{"scheduler":"HEFT","wfc":null,"nodes":3}`,
	`{"scheduler":"HEFT","instance":{"tasks":[{"name":"a","cost":1}],"speeds":[1]},"wfc":{"workflow":{"tasks":[{"name":"a","runtimeInSeconds":1}]}}}`,
	`{"scheduler":"HEFT","instance":{"tasks":[]},"wfc":{"workflow":{"tasks":[{"name":"a","runtimeInSeconds":1}]}}}`,
	"{\n\t\"scheduler\" : \"HEFT\",\n\t\"wfc\" : {\n\t\t\"name\" : \"a b\",\n\t\t\"workflow\" : {\n\t\t\t\"tasks\" : [\n\t\t\t\t{ \"name\" : \"t 1\" , \"runtimeInSeconds\" : 1 ,\r\n \"files\" : [ { \"name\" : \"f\" , \"link\" : \"output\" , \"sizeInBytes\" : 2 } ] } ,\n\t\t\t\t{ \"name\" : \"t2\" , \"parents\" : [ \"t 1\" ] , \"runtimeInSeconds\" : 2 , \"files\" : [ { \"name\" : \"f\" , \"link\" : \"input\" } ] }\n\t\t\t]\n\t\t}\n\t} ,\n\t\"nodes\" : 2\n}\n",
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

// The allocation budgets of one POST /v1/schedule through ServeHTTP on
// an httptest recorder, each the count measured on its path plus 2. A
// cache hit that schedules, one answered with a stored response through
// the scan, and one answered by its body's hash measured 28, 26 and 25
// while every request body got a fresh buffer; a hit through the scan
// decodes its payload into the pooled wireState and allocates no more
// for it. A miss measured 253 allocations with an instance body and 625
// with a wfformat body while each validated its graph twice and grew a
// fresh scratch, then 61–62 and 62 while it decoded its payload on a
// second pass into fresh storage, 48 with a wfformat body while the
// key's import knobs were a local array that escaped to the heap, and 39
// and 47 while every miss parked its scratch with its cache entry. It
// read 38 or 39 while the scratch pool was a sync.Pool, which drops its
// scratches at GC; with a free list it read 38 and 46 in ten of ten runs.
const (
	schedulingHitAllocBudget = 27 + 2
	scannedHitAllocBudget    = 25 + 2
	indexedHitAllocBudget    = 24 + 2

	scheduleMissInstanceAllocBudget = 38 + 2
	scheduleMissWfCAllocBudget      = 46 + 2
)

// TestScheduleHitAllocs is the allocation gate of the wire path (`make
// bench-serve`): a cache hit that schedules reads the body, scans and
// keys it, leases a pooled scratch and builds its tables, schedules,
// appends the response and stores a copy of it; a hit answered with
// that stored copy through the scan only reads, scans, keys and writes;
// and a repeat of the storing body only reads, hashes and writes. None
// may start allocating per request again.
func TestScheduleHitAllocs(t *testing.T) {
	if os.Getenv("SERVE_BENCH_GATE") != "1" {
		t.Skip("set SERVE_BENCH_GATE=1 to run the cache-hit allocation gate")
	}
	// A scheduling hit happens once per cached instance and scheduler, so
	// each measured call of the first kind gets an instance of its own,
	// submitted once beforehand.
	const runs = 100
	s := New(Options{CacheEntries: runs + 1})
	var bodies [][]byte
	for seed := uint64(1); seed <= runs+1; seed++ {
		bodies = append(bodies, mustMarshal(t, ScheduleRequest{Scheduler: "HEFT", Instance: testInstance(t, seed)}))
	}
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/schedule", bytes.NewReader(body)))
		return rec
	}
	for _, body := range bodies {
		if rec := post(body); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	next := 0
	scheduling := testing.AllocsPerRun(runs, func() {
		post(bodies[next])
		next++
	})
	// A trailing space is another body for the same envelope: its hash
	// finds nothing, and the scan finds the stored response.
	respelled := append(append([]byte(nil), bodies[0]...), ' ')
	scanned := testing.AllocsPerRun(200, func() { post(respelled) })
	indexed := testing.AllocsPerRun(200, func() { post(bodies[0]) })
	t.Logf("cache-hit POST /v1/schedule: %.0f allocs/op scheduling (budget %d), %.0f answered with the stored response through the scan (budget %d), %.0f by the body's hash (budget %d)",
		scheduling, schedulingHitAllocBudget, scanned, scannedHitAllocBudget, indexed, indexedHitAllocBudget)
	if scheduling > schedulingHitAllocBudget || scanned > scannedHitAllocBudget || indexed > indexedHitAllocBudget {
		t.Fatalf("cache-hit POST /v1/schedule allocates %.0f times scheduling (budget %d), %.0f answered through the scan (budget %d) and %.0f by the body's hash (budget %d)",
			scheduling, schedulingHitAllocBudget, scanned, scannedHitAllocBudget, indexed, indexedHitAllocBudget)
	}
	if st := s.cache.stats(); st.Misses != runs+1 || st.ResponseHits != 402 || st.BodyHits != 201 {
		t.Fatalf("the measured requests were not the hits they should be: %+v", st)
	}
}

// missBodies returns n distinct /v1/schedule bodies over the workflow
// recipes in rotation, like the cold serve mix: raw instance documents,
// or wfformat documents when wfformat is set.
func missBodies(t *testing.T, n int, wfformat bool) [][]byte {
	t.Helper()
	recipes := datasets.WorkflowNames
	bodies := make([][]byte, 0, n)
	for i := 0; len(bodies) < n; i++ {
		insts, err := datasets.Dataset(recipes[i%len(recipes)], 1, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		req := ScheduleRequest{Scheduler: "HEFT"}
		if wfformat {
			if req.WfC, err = wfc.FromTaskGraph("miss", insts[0].Graph).Marshal(); err != nil {
				t.Fatal(err)
			}
		} else if req.Instance, err = serialize.MarshalInstance(insts[0]); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, mustMarshal(t, req))
	}
	return bodies
}

// TestScheduleMissAllocs is the allocation gate of a cold POST
// /v1/schedule (`make bench-serve`): every measured request carries an
// instance the cache has not seen, so it reads the body, decodes and
// keys the payload in one scan, builds and validates the instance,
// inserts it (evicting an entry), builds tables, schedules and encodes. One run sends raw instance
// documents, the other wfformat documents.
func TestScheduleMissAllocs(t *testing.T) {
	if os.Getenv("SERVE_BENCH_GATE") != "1" {
		t.Skip("set SERVE_BENCH_GATE=1 to run the cache-miss allocation gate")
	}
	const runs = 100
	for _, tc := range []struct {
		name     string
		wfformat bool
		budget   float64
	}{
		{"instance", false, scheduleMissInstanceAllocBudget},
		{"wfformat", true, scheduleMissWfCAllocBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bodies := missBodies(t, 2*(runs+1), tc.wfformat)
			s := New(Options{CacheEntries: 8})
			// Fill the cache first, so every measured miss also evicts.
			for _, body := range bodies[runs+1:] {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/schedule", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/schedule", bytes.NewReader(bodies[next])))
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
				next++
			})
			runtime.ReadMemStats(&after)
			t.Logf("cache-miss POST /v1/schedule, %s body: %.0f allocs/op, %d bytes/op (budget %.0f allocs)",
				tc.name, allocs, (after.TotalAlloc-before.TotalAlloc)/uint64(runs+1), tc.budget)
			if allocs > tc.budget {
				t.Fatalf("cache-miss POST /v1/schedule with a %s body allocates %.0f times, budget %.0f", tc.name, allocs, tc.budget)
			}
			if st := s.cache.stats(); st.Hits != 0 || st.Misses != 2*(runs+1) {
				t.Fatalf("the measured requests were not the misses they should be: %+v", st)
			}
		})
	}
}
