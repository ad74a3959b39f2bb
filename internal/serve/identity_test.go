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
	"net/http/httptest"
	"testing"

	"saga/internal/core"
	"saga/internal/experiments"
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
