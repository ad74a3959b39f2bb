package serve

// The byte-identity suite: for every request kind the daemon serves,
// the HTTP response body must equal — byte for byte — the encoding of
// the result a direct in-process library call produces on the same
// input. This is the contract that lets `saga schedule -server` print
// exactly what `saga schedule` prints, and it holds by construction:
// one response-encoding path (httpx.WriteJSON) and computation that is
// already proven bit-identical across scratch reuse and worker counts
// (ARCHITECTURE invariants 6 and 8).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"saga/internal/datasets"
	"saga/internal/experiments"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/runner"
	"saga/internal/scheduler"
	"saga/internal/serialize"
	"saga/internal/wfc"
)

// encodeLikeDaemon mirrors httpx.WriteJSON: json.Marshal plus the
// trailing newline json.Encoder emits.
func encodeLikeDaemon(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func TestScheduleByteIdentity(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, name := range []string{"HEFT", "CPoP", "MinMin", "ETF"} {
		for seed := uint64(1); seed <= 3; seed++ {
			instRaw := testInstance(t, seed)

			// Direct library path.
			inst, err := serialize.UnmarshalInstance(instRaw)
			if err != nil {
				t.Fatal(err)
			}
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
			want := encodeLikeDaemon(t, ScheduleResponse{
				Scheduler: sched.Name(),
				Makespan:  direct.Makespan(),
				Schedule:  rawSched,
			})

			// Daemon path, twice: cold (parse + table build) and warm
			// (cache hit on a pooled scratch) must both match.
			body := mustMarshal(t, ScheduleRequest{Scheduler: name, Instance: instRaw})
			for pass, label := range []string{"cold", "warm"} {
				resp, got := postRaw(t, ts.URL, "/v1/schedule", body)
				if resp.StatusCode != 200 {
					t.Fatalf("%s seed %d %s: status %d: %s", name, seed, label, resp.StatusCode, got)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("%s seed %d %s pass %d: daemon response diverged from direct call\nwant: %s\ngot:  %s",
						name, seed, label, pass, want, got)
				}
			}
		}
	}
}

func TestPortfolioByteIdentity(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	names := []string{"HEFT", "CPoP", "MinMin"}
	req := PortfolioRequest{Schedulers: names, K: 2, Iters: 20, Restarts: 1, Seed: 42}

	// Direct library path, deliberately run with a different worker
	// count than the daemon's: invariant 6 makes the grid identical, so
	// identity here also re-proves worker-count independence.
	_, compute, err := experiments.Pairwise.Bind(experiments.SweepParams{
		Schedulers: names, Iters: req.Iters, Restarts: req.Restarts, Seed: req.Seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := compute(runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := experiments.SelectPortfolio(res.Schedulers, res.Ratios, req.K)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeLikeDaemon(t, PortfolioResponse{
		Schedulers: res.Schedulers,
		Ratios:     res.Ratios,
		Members:    p.Members,
		WorstRatio: p.WorstRatio,
	})

	resp, got := postRaw(t, ts.URL, "/v1/portfolio", mustMarshal(t, req))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("portfolio response diverged from direct call\nwant: %s\ngot:  %s", want, got)
	}
}

func TestRobustnessByteIdentity(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	instRaw := testInstance(t, 9)
	inst, err := serialize.UnmarshalInstance(instRaw)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := wfc.FromTaskGraph("robustness", inst.Graph).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	wfcInst, err := datasets.InstanceFromWfC(doc, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Two zero-cost tasks on one node, b → a, start and end at one
	// instant; the static replay must run b first.
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 0)
	b := g.AddTask("b", 0)
	g.MustAddDep(b, a, 1)
	zeroInst := graph.NewInstance(g, graph.NewNetwork(1))
	zeroRaw, err := serialize.MarshalInstance(zeroInst)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		req  RobustnessRequest
		inst *graph.Instance
	}{
		{"instance", RobustnessRequest{Scheduler: "HEFT", Instance: instRaw, Sigma: 0.3, N: 25, Seed: 7}, inst},
		{"wfformat", RobustnessRequest{Scheduler: "HEFT", WfC: doc, Link: 2, Nodes: 3, Sigma: 0.3, N: 25, Seed: 7}, wfcInst},
		{"zero-cost tie", RobustnessRequest{Scheduler: "HEFT", Instance: zeroRaw, Sigma: 0.2, N: 3, Seed: 1}, zeroInst},
	} {
		raw, err := serialize.MarshalInstance(tc.inst)
		if err != nil {
			t.Fatal(err)
		}
		_, compute, err := experiments.Robustness.Bind(experiments.SweepParams{
			Scheduler: tc.req.Scheduler, InstanceRaw: raw, Sigma: tc.req.Sigma, N: tc.req.N, Seed: tc.req.Seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := compute(runner.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		want := encodeLikeDaemon(t, RobustnessResponse{
			Scheduler: res.Scheduler,
			Nominal:   res.Nominal,
			Static:    res.Static,
			Adaptive:  res.Adaptive,
		})

		// Cold and warm: the second submission may decode into the pooled
		// wire state the first left behind, and must still match exactly.
		for _, label := range []string{"cold", "warm"} {
			resp, got := postRaw(t, ts.URL, "/v1/robustness", mustMarshal(t, tc.req))
			if resp.StatusCode != 200 {
				t.Fatalf("%s %s: status %d: %s", tc.name, label, resp.StatusCode, got)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("%s %s: robustness response diverged from direct call\nwant: %s\ngot:  %s", tc.name, label, want, got)
			}
		}
	}
}

// libraryAnswer is the /v1/schedule body a direct library call gives:
// scheduler.Schedule, then serialize.MarshalSchedule inside the
// response envelope.
func libraryAnswer(t *testing.T, name string, inst *graph.Instance) []byte {
	t.Helper()
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
	return encodeLikeDaemon(t, ScheduleResponse{Scheduler: sched.Name(), Makespan: direct.Makespan(), Schedule: rawSched})
}

// postExpect posts body to /v1/schedule and fails unless the answer is
// want and the cache counters moved by exactly the given deltas.
func postExpect(t *testing.T, s *Server, url string, body, want []byte, misses, hits, responseHits uint64, label string) {
	t.Helper()
	before := s.cache.stats()
	resp, got := postRaw(t, url, "/v1/schedule", body)
	if resp.StatusCode != 200 || !bytes.Equal(want, got) {
		t.Fatalf("%s: status %d, answer diverged from the library's\nwant: %s\ngot:  %s", label, resp.StatusCode, want, got)
	}
	after := s.cache.stats()
	if after.Misses-before.Misses != misses || after.Hits-before.Hits != hits || after.ResponseHits-before.ResponseHits != responseHits {
		t.Fatalf("%s: cache went from %+v to %+v, want +%d misses, +%d hits, +%d stored answers",
			label, before, after, misses, hits, responseHits)
	}
}

// postStored posts body, which must be answered with a stored response
// equal to want: found by the hash of its exact bytes when indexed is
// set, else through the envelope scan.
func postStored(t *testing.T, s *Server, url string, body, want []byte, indexed bool, label string) {
	t.Helper()
	before := s.cache.stats().BodyHits
	postExpect(t, s, url, body, want, 0, 1, 1, label)
	if found := s.cache.stats().BodyHits > before; found != indexed {
		t.Fatalf("%s: found by the body's hash %v, want %v", label, found, indexed)
	}
}

// checkBodyIndex fails unless the body index holds exactly one key per
// stored response in a live entry, each leading to that entry and
// response, and returns how many it holds.
func checkBodyIndex(t *testing.T, s *Server) int {
	t.Helper()
	c := s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.entries {
		for _, r := range e.responses {
			if ir, ok := c.bodies[r.raw]; !ok || ir.entry != e || !bytes.Equal(ir.body, r.body) {
				t.Fatalf("%s's stored response is not indexed under the body that stored it", r.scheduler)
			}
			n++
		}
	}
	if len(c.bodies) != n || c.nBodies.Load() != int64(n) {
		t.Fatalf("body index holds %d keys (counted %d) for %d stored responses", len(c.bodies), c.nBodies.Load(), n)
	}
	return n
}

// TestStoredResponseIdentity holds every registered scheduler's four
// daemon paths to the library: the miss (parse, cold tables), the hit
// that schedules on a pooled scratch and stores its response, a respelled
// body (keys reordered) that reaches the stored bytes through the
// envelope scan, and the storing body again, answered by the hash of its
// bytes. The instances are the paper's PISA starting chains, small
// enough for the exact schedulers.
func TestStoredResponseIdentity(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	for i, name := range scheduler.Names() {
		inst := datasets.InitialPISAInstance(rng.New(uint64(100 + i)))
		instRaw, err := serialize.MarshalInstance(inst)
		if err != nil {
			t.Fatal(err)
		}
		want := libraryAnswer(t, name, inst)
		body := mustMarshal(t, ScheduleRequest{Scheduler: name, Instance: instRaw})
		respelled := []byte(`{"instance":` + string(instRaw) + `,"scheduler":"` + name + `"}`)
		postExpect(t, s, ts.URL, body, want, 1, 0, 0, name+" miss")
		postExpect(t, s, ts.URL, body, want, 0, 1, 0, name+" scheduling hit")
		postStored(t, s, ts.URL, respelled, want, false, name+" stored answer, scanned")
		postStored(t, s, ts.URL, body, want, true, name+" stored answer, indexed")
	}
	if n := checkBodyIndex(t, s); n != len(scheduler.Names()) {
		t.Fatalf("%d bodies indexed, want one per scheduler", n)
	}
}

// TestStoredResponseIndexNegatives: bodies that differ from an indexed
// one never get its answer by hash. A trailing space reaches the same
// stored bytes through the scan; another scheduler gets its own answer;
// a truncated body and a repeated envelope key are refused alike every
// time; and none of the refusals changes the index.
func TestStoredResponseIndexNegatives(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	instRaw := testInstance(t, 4)
	inst, err := serialize.UnmarshalInstance(instRaw)
	if err != nil {
		t.Fatal(err)
	}
	want := libraryAnswer(t, "HEFT", inst)
	body := mustMarshal(t, ScheduleRequest{Scheduler: "HEFT", Instance: instRaw})
	postExpect(t, s, ts.URL, body, want, 1, 0, 0, "miss")
	postExpect(t, s, ts.URL, body, want, 0, 1, 0, "scheduling hit")
	postStored(t, s, ts.URL, body, want, true, "identical body")

	postStored(t, s, ts.URL, append(append([]byte(nil), body...), ' '), want, false, "trailing space")
	other := mustMarshal(t, ScheduleRequest{Scheduler: "CPoP", Instance: instRaw})
	postExpect(t, s, ts.URL, other, libraryAnswer(t, "CPoP", inst), 0, 1, 0, "another scheduler")
	if n := checkBodyIndex(t, s); n != 2 {
		t.Fatalf("%d bodies indexed, want HEFT's and CPoP's", n)
	}

	refused := map[string][]byte{
		"truncated body": body[:len(body)-1],
		"repeated key":   []byte(`{"scheduler":"HEFT",` + string(body[1:])),
	}
	for label, bad := range refused {
		before := s.cache.stats()
		var first []byte
		for i := 0; i < 3; i++ {
			resp, got := postRaw(t, ts.URL, "/v1/schedule", bad)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s, post %d: status %d: %s", label, i, resp.StatusCode, got)
			}
			if i == 0 {
				first = got
			} else if !bytes.Equal(first, got) {
				t.Fatalf("%s, post %d: refused with %q, first with %q", label, i, got, first)
			}
		}
		if after := s.cache.stats(); after != before {
			t.Fatalf("%s: cache went from %+v to %+v", label, before, after)
		}
		if n := checkBodyIndex(t, s); n != 2 {
			t.Fatalf("%s: %d bodies indexed, want the same 2", label, n)
		}
	}
}

// TestStoredResponseAcrossSpellings: a re-indented instance and a
// respelled wfformat import hash to the entry that holds the stored
// response, and get it.
func TestStoredResponseAcrossSpellings(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	instRaw := testInstance(t, 11)
	inst, err := serialize.UnmarshalInstance(instRaw)
	if err != nil {
		t.Fatal(err)
	}
	want := libraryAnswer(t, "CPoP", inst)
	body := mustMarshal(t, ScheduleRequest{Scheduler: "CPoP", Instance: instRaw})
	postExpect(t, s, ts.URL, body, want, 1, 0, 0, "instance miss")
	postExpect(t, s, ts.URL, body, want, 0, 1, 0, "instance scheduling hit")
	var indented bytes.Buffer
	if err := json.Indent(&indented, instRaw, "", "\t"); err != nil {
		t.Fatal(err)
	}
	postExpect(t, s, ts.URL, mustMarshal(t, ScheduleRequest{Scheduler: "CPoP", Instance: indented.Bytes()}),
		want, 0, 1, 1, "re-indented instance")

	const doc = `{"workflow": {"tasks": [{"name": "a", "runtimeInSeconds": 1}, {"name": "b", "runtimeInSeconds": 2, "parents": ["a"]},
		{"name": "c", "runtimeInSeconds": 3, "parents": ["a"]}, {"name": "d", "runtimeInSeconds": 1, "parents": ["b", "c"]}]}}`
	wfcInst, err := datasets.InstanceFromWfC([]byte(doc), 1, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want = libraryAnswer(t, "CPoP", wfcInst)
	postExpect(t, s, ts.URL, []byte(`{"scheduler": "CPoP", "wfc": `+doc+`}`), want, 1, 0, 0, "wfformat miss")
	postExpect(t, s, ts.URL, []byte(`{"scheduler": "CPoP", "wfc": `+doc+`}`), want, 0, 1, 0, "wfformat scheduling hit")
	var compact bytes.Buffer
	if err := json.Compact(&compact, []byte(doc)); err != nil {
		t.Fatal(err)
	}
	postExpect(t, s, ts.URL, []byte(`{"nodes": 4, "wfc": `+compact.String()+`, "link": 1, "scheduler": "CPoP"}`),
		want, 0, 1, 1, "respelled wfformat")
}

// TestStoredResponseAcrossEviction runs two instances in alternating
// runs through a one-entry cache: each run's first request evicts the
// other instance, stored responses included, and every answer stays the
// library's.
func TestStoredResponseAcrossEviction(t *testing.T) {
	s := New(Options{CacheEntries: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	var bodies, wants [][]byte
	for seed := uint64(1); seed <= 2; seed++ {
		instRaw := testInstance(t, seed)
		inst, err := serialize.UnmarshalInstance(instRaw)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, mustMarshal(t, ScheduleRequest{Scheduler: "HEFT", Instance: instRaw}))
		wants = append(wants, libraryAnswer(t, "HEFT", inst))
	}
	for run := 0; run < 4; run++ {
		i := run % 2
		label := fmt.Sprintf("run %d (instance %d)", run, i)
		postExpect(t, s, ts.URL, bodies[i], wants[i], 1, 0, 0, label+" miss")
		if n := checkBodyIndex(t, s); n != 0 {
			t.Fatalf("%s: %d bodies still indexed after the eviction", label, n)
		}
		postExpect(t, s, ts.URL, bodies[i], wants[i], 0, 1, 0, label+" scheduling hit")
		postStored(t, s, ts.URL, bodies[i], wants[i], true, label+" stored answer")
		if n := checkBodyIndex(t, s); n != 1 {
			t.Fatalf("%s: %d bodies indexed, want the run's one", label, n)
		}
	}
	if st := s.cache.stats(); st.Entries != 1 || st.Evictions != 3 {
		t.Fatalf("cache after four runs: %+v, want 1 entry and 3 evictions", st)
	}
}

// TestStoredResponseRace sends identical requests for a cached instance
// at once, twice: in the first round several may schedule and race to
// store, and one store wins; in the second every request is answered by
// the hash of the body. Every answer is the library's (`make test-race`
// runs this package).
func TestStoredResponseRace(t *testing.T) {
	s := New(Options{MaxConcurrent: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()
	instRaw := testInstance(t, 3)
	inst, err := serialize.UnmarshalInstance(instRaw)
	if err != nil {
		t.Fatal(err)
	}
	want := libraryAnswer(t, "MinMin", inst)
	body := mustMarshal(t, ScheduleRequest{Scheduler: "MinMin", Instance: instRaw})
	postExpect(t, s, ts.URL, body, want, 1, 0, 0, "miss")

	const clients, iters = 8, 5
	round := func() {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					got, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != 200 || !bytes.Equal(want, got) {
						t.Errorf("status %d (%v), answer diverged from the library's\nwant: %s\ngot:  %s", resp.StatusCode, err, want, got)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	round()
	snap := metricsSnapshot(t, ts.URL)
	if total := uint64(1 + clients*iters); snap.Pool.Leases+snap.Cache.ResponseHits != total || snap.Cache.ResponseHits == 0 {
		t.Fatalf("%d leases + %d stored answers for %d requests", snap.Pool.Leases, snap.Cache.ResponseHits, total)
	}
	if n := checkBodyIndex(t, s); n != 1 {
		t.Fatalf("%d bodies indexed after the race to store, want 1", n)
	}
	round()
	after := metricsSnapshot(t, ts.URL)
	if after.Pool.Leases != snap.Pool.Leases || after.Cache.BodyHits-snap.Cache.BodyHits != clients*iters {
		t.Fatalf("second round: %d leases and %d answers by the body's hash, want 0 and %d",
			after.Pool.Leases-snap.Pool.Leases, after.Cache.BodyHits-snap.Cache.BodyHits, clients*iters)
	}
}
