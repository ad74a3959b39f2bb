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

	"saga/internal/core"
	"saga/internal/datasets"
	"saga/internal/experiments"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/runner"
	"saga/internal/scheduler"
	"saga/internal/serialize"
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
			// (cache hit, parked scratch) must both match.
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
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	names := []string{"HEFT", "CPoP", "MinMin"}
	req := PortfolioRequest{Schedulers: names, K: 2, Iters: 20, Restarts: 1, Seed: 42}

	// Direct library path, deliberately run with a different worker
	// count than the daemon's: invariant 6 makes the grid identical, so
	// identity here also re-proves worker-count independence.
	var scheds []scheduler.Scheduler
	for _, n := range names {
		sc, err := scheduler.New(n)
		if err != nil {
			t.Fatal(err)
		}
		scheds = append(scheds, sc)
	}
	opts := core.DefaultOptions()
	opts.MaxIters = req.Iters
	opts.Restarts = req.Restarts
	opts.Seed = req.Seed
	res, err := experiments.PairwisePISARun(scheds, experiments.PairwiseOptions{Anneal: opts},
		runner.Options{Workers: 2})
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
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	instRaw := testInstance(t, 9)
	req := RobustnessRequest{Scheduler: "HEFT", Instance: instRaw, Sigma: 0.3, N: 25, Seed: 7}

	inst, err := serialize.UnmarshalInstance(instRaw)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduler.New(req.Scheduler)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.RobustnessRun(inst, sched, req.Sigma, req.N, req.Seed,
		runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeLikeDaemon(t, RobustnessResponse{
		Scheduler: res.Scheduler,
		Nominal:   res.Nominal,
		Static:    res.Static,
		Adaptive:  res.Adaptive,
	})

	// Cold and warm: the robustness path shares the instance cache with
	// the schedule path, so the second submission replays off the cached
	// instance pointer and must still match exactly.
	for _, label := range []string{"cold", "warm"} {
		resp, got := postRaw(t, ts.URL, "/v1/robustness", mustMarshal(t, req))
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", label, resp.StatusCode, got)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: robustness response diverged from direct call\nwant: %s\ngot:  %s", label, want, got)
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

// TestStoredResponseIdentity holds every registered scheduler's three
// daemon paths to the library: the miss (parse, cold tables), the hit
// that schedules on parked tables and stores its response, and the hit
// answered with the stored bytes. The instances are the paper's PISA
// starting chains, small enough for the exact schedulers.
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
		postExpect(t, s, ts.URL, body, want, 1, 0, 0, name+" miss")
		postExpect(t, s, ts.URL, body, want, 0, 1, 0, name+" scheduling hit")
		postExpect(t, s, ts.URL, body, want, 0, 1, 1, name+" stored answer")
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
		postExpect(t, s, ts.URL, bodies[i], wants[i], 0, 1, 0, label+" scheduling hit")
		postExpect(t, s, ts.URL, bodies[i], wants[i], 0, 1, 1, label+" stored answer")
	}
	if st := s.cache.stats(); st.Entries != 1 || st.Evictions != 3 {
		t.Fatalf("cache after four runs: %+v, want 1 entry and 3 evictions", st)
	}
}

// TestStoredResponseRace sends identical requests for a cached instance
// at once: several may schedule and race to store, one store wins, and
// every answer is the library's (`make test-race` runs this package).
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
	snap := metricsSnapshot(t, ts.URL)
	if total := uint64(1 + clients*iters); snap.Pool.Leases+snap.Cache.ResponseHits != total || snap.Cache.ResponseHits == 0 {
		t.Fatalf("%d leases + %d stored answers for %d requests", snap.Pool.Leases, snap.Cache.ResponseHits, total)
	}
}
