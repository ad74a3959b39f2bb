package serve

// TestServeSmokeE2E is the process-level drill for the daemon: build
// the real saga binary, boot `saga serve` on a free port, fire
// concurrent requests of all three kinds (plus one malformed, which
// must be refused without disturbing the rest), assert every response
// byte-identical to direct in-process library calls, then deliver
// SIGTERM mid-request and verify graceful shutdown: the in-flight
// request drains to a full 200, new connections are refused, and the
// process exits 0. Forks processes, so it only runs when SERVE_SMOKE=1
// (wired up as `make serve-smoke`, part of `make verify`).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"testing"
	"time"

	"saga/internal/core"
	"saga/internal/experiments"
	"saga/internal/runner"
	"saga/internal/scheduler"
	"saga/internal/serialize"
)

func TestServeSmokeE2E(t *testing.T) {
	if os.Getenv("SERVE_SMOKE") != "1" {
		t.Skip("set SERVE_SMOKE=1 to run the process-level daemon smoke test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "saga")
	build := exec.Command("go", "build", "-o", bin, "saga/cmd/saga")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build saga: %v\n%s", err, out)
	}

	proc := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-max-concurrent", "4")
	stdout, err := proc.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	proc.Stderr = os.Stderr
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	defer proc.Process.Kill()

	// The daemon prints its bound address.
	urlRe := regexp.MustCompile(`listening on (http://[0-9.:]+)`)
	var baseURL string
	var outBuf bytes.Buffer
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		outBuf.WriteString(sc.Text() + "\n")
		if m := urlRe.FindStringSubmatch(sc.Text()); m != nil {
			baseURL = m[1]
			break
		}
	}
	if baseURL == "" {
		t.Fatalf("daemon never printed its address (scan error: %v)", sc.Err())
	}
	var outMu sync.Mutex
	go func() {
		for sc.Scan() {
			outMu.Lock()
			outBuf.WriteString(sc.Text() + "\n")
			outMu.Unlock()
		}
	}()

	// Phase 1: concurrent mixed traffic, every response checked against
	// the direct library path byte for byte.
	do := func(path string, reqBody []byte) (int, []byte, error) {
		resp, err := http.Post(baseURL+path, "application/json", bytes.NewReader(reqBody))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return 0, nil, err
		}
		return resp.StatusCode, buf.Bytes(), nil
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	encode := func(v any) []byte { return append(marshal(v), '\n') }

	type call struct {
		name       string
		path       string
		body       []byte
		wantStatus int
		want       []byte // nil: status check only
	}
	var calls []call

	// Three schedule requests over distinct instances.
	for seed := uint64(1); seed <= 3; seed++ {
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
		calls = append(calls, call{
			name:       fmt.Sprintf("schedule-%d", seed),
			path:       "/v1/schedule",
			body:       marshal(ScheduleRequest{Scheduler: "HEFT", Instance: instRaw}),
			wantStatus: 200,
			want: encode(ScheduleResponse{
				Scheduler: sched.Name(),
				Makespan:  direct.Makespan(),
				Schedule:  rawSched,
			}),
		})
	}

	// One portfolio request.
	{
		names := []string{"HEFT", "CPoP", "MinMin"}
		var scheds []scheduler.Scheduler
		for _, n := range names {
			sc, err := scheduler.New(n)
			if err != nil {
				t.Fatal(err)
			}
			scheds = append(scheds, sc)
		}
		opts := core.DefaultOptions()
		opts.MaxIters = 15
		opts.Restarts = 1
		opts.Seed = 5
		res, err := experiments.PairwisePISARun(scheds, experiments.PairwiseOptions{Anneal: opts},
			runner.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		p, err := experiments.SelectPortfolio(res.Schedulers, res.Ratios, 2)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call{
			name:       "portfolio",
			path:       "/v1/portfolio",
			body:       marshal(PortfolioRequest{Schedulers: names, K: 2, Iters: 15, Restarts: 1, Seed: 5}),
			wantStatus: 200,
			want: encode(PortfolioResponse{
				Schedulers: res.Schedulers,
				Ratios:     res.Ratios,
				Members:    p.Members,
				WorstRatio: p.WorstRatio,
			}),
		})
	}

	// One robustness request.
	{
		instRaw := testInstance(t, 4)
		inst, err := serialize.UnmarshalInstance(instRaw)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := scheduler.New("CPoP")
		if err != nil {
			t.Fatal(err)
		}
		res, err := experiments.RobustnessRun(inst, sched, 0.2, 30, 3, runner.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call{
			name:       "robustness",
			path:       "/v1/robustness",
			body:       marshal(RobustnessRequest{Scheduler: "CPoP", Instance: instRaw, Sigma: 0.2, N: 30, Seed: 3}),
			wantStatus: 200,
			want: encode(RobustnessResponse{
				Scheduler: res.Scheduler,
				Nominal:   res.Nominal,
				Static:    res.Static,
				Adaptive:  res.Adaptive,
			}),
		})
	}

	// And one malformed request riding along: refused with 400, nothing
	// else disturbed.
	calls = append(calls, call{
		name:       "malformed",
		path:       "/v1/schedule",
		body:       []byte(`{"scheduler": "HEFT", "instance": [broken`),
		wantStatus: 400,
	})

	var wg sync.WaitGroup
	for _, c := range calls {
		wg.Add(1)
		go func(c call) {
			defer wg.Done()
			status, got, err := do(c.path, c.body)
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
				return
			}
			if status != c.wantStatus {
				t.Errorf("%s: status %d, want %d: %s", c.name, status, c.wantStatus, got)
				return
			}
			if c.want != nil && !bytes.Equal(c.want, got) {
				t.Errorf("%s: daemon bytes diverged from direct library call\nwant: %s\ngot:  %s", c.name, c.want, got)
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("mixed-traffic phase failed; skipping shutdown phase")
	}

	// Phase 2: graceful shutdown. Put a slow robustness request in
	// flight, SIGTERM the daemon, and demand three things: the in-flight
	// request drains to a full correct 200, new connections are refused,
	// and the process exits 0.
	slowBody := marshal(RobustnessRequest{Scheduler: "HEFT", Instance: testInstance(t, 4), Sigma: 0.2, N: 20000, Seed: 9})
	type result struct {
		status int
		body   []byte
		err    error
	}
	slowc := make(chan result, 1)
	go func() {
		status, body, err := do("/v1/robustness", slowBody)
		slowc <- result{status, body, err}
	}()

	// Wait until the daemon reports the request in flight.
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/metrics")
		inflight := 0
		if err == nil {
			var snap MetricsSnapshot
			if json.NewDecoder(resp.Body).Decode(&snap) == nil {
				inflight = snap.Admission.Inflight
			}
			resp.Body.Close()
		}
		if inflight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow request never showed up in /metrics inflight")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// New connections must start failing while the in-flight request
	// drains (Shutdown closes the listener first).
	refusedBy := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/healthz")
		if err != nil {
			break // refused: the door is closed
		}
		resp.Body.Close()
		if time.Now().After(refusedBy) {
			t.Fatal("daemon still accepting new connections after SIGTERM")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The in-flight request still completes, correctly.
	slow := <-slowc
	if slow.err != nil {
		t.Fatalf("in-flight request was dropped during drain: %v", slow.err)
	}
	if slow.status != 200 {
		t.Fatalf("in-flight request status %d during drain: %s", slow.status, slow.body)
	}
	var rr RobustnessResponse
	if err := json.Unmarshal(slow.body, &rr); err != nil || rr.Static.N != 20000 {
		t.Fatalf("drained response implausible (err %v): %s", err, slow.body)
	}

	if err := proc.Wait(); err != nil {
		t.Fatalf("daemon exited non-zero after graceful drain: %v", err)
	}
	outMu.Lock()
	defer outMu.Unlock()
	if !bytes.Contains(outBuf.Bytes(), []byte("drained, exiting")) {
		t.Fatalf("daemon never logged the drain:\n%s", outBuf.String())
	}
}
