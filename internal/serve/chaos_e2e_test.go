package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"testing"
	"time"

	"saga/internal/coord"
	"saga/internal/httpx"
)

// TestChaosSmokeE2E is the process-level chaos drill for the dispatch
// layer, two process kinds: a real `saga serve` daemon and the three
// real `saga worker -coordinator <daemon>/hub -persist` processes it
// farms requests to — one of them SIGKILLed mid-sweep, one bearer token
// on every hop. Every response must be byte-identical to in-process
// local execution, nothing may degrade, and a SIGTERM must drain each
// process to a clean exit 0. It builds the saga binary and forks
// processes, so it only runs when CHAOS_SMOKE=1 (wired up as `make
// chaos-smoke`, part of `make verify`).
func TestChaosSmokeE2E(t *testing.T) {
	if os.Getenv("CHAOS_SMOKE") != "1" {
		t.Skip("set CHAOS_SMOKE=1 to run the process-level dispatch chaos drill")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "saga")
	build := exec.Command("go", "build", "-o", bin, "saga/cmd/saga")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build saga: %v\n%s", err, out)
	}
	const token = "chaos-secret"
	urlRe := regexp.MustCompile(`on (http://[0-9.:]+)`)

	// start launches a process and scrapes the "… on http://host:port"
	// line from its stdout, draining the rest in the background.
	start := func(args ...string) (*exec.Cmd, string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(stdout)
		var url string
		for sc.Scan() {
			if m := urlRe.FindStringSubmatch(sc.Text()); m != nil {
				url = m[1]
				break
			}
		}
		if url == "" {
			cmd.Process.Kill()
			t.Fatalf("%v never printed its address (scan error: %v)", args, sc.Err())
		}
		go func() {
			for sc.Scan() {
			}
		}()
		return cmd, url
	}

	// The window is also the lease lifetime: the killed worker's cells
	// come back to the survivors after one of it.
	daemon, daemonURL := start("serve", "-addr", "127.0.0.1:0", "-token", token, "-degrade-window", "1s")
	defer daemon.Process.Kill()
	authed := &Client{BaseURL: daemonURL, Token: token}

	// In-process local twin: the byte-identity reference.
	local := httptest.NewServer(New(Options{}))
	defer local.Close()

	reqs := []struct {
		name, path string
		body       []byte
	}{
		{"portfolio-a", "/v1/portfolio", mustMarshal(t, PortfolioRequest{
			Schedulers: []string{"HEFT", "CPoP", "MinMin"}, K: 2, Iters: 120, Restarts: 1, Seed: 41})},
		{"portfolio-b", "/v1/portfolio", mustMarshal(t, PortfolioRequest{
			Schedulers: []string{"HEFT", "CPoP", "ETF"}, K: 2, Iters: 120, Restarts: 1, Seed: 43})},
		{"robustness-a", "/v1/robustness", mustMarshal(t, RobustnessRequest{
			Scheduler: "HEFT", Instance: testInstance(t, 61), Sigma: 0.3, N: 400, Seed: 11})},
		{"robustness-b", "/v1/robustness", mustMarshal(t, RobustnessRequest{
			Scheduler: "CPoP", Instance: testInstance(t, 67), Sigma: 0.2, N: 400, Seed: 13})},
	}
	want := make([][]byte, len(reqs))
	for i, rq := range reqs {
		resp, body := postRaw(t, local.URL, rq.path, rq.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("local twin %s: status %d: %s", rq.name, resp.StatusCode, body)
		}
		want[i] = body
	}

	hubStatusAuthed := func() coord.Status {
		var st coord.Status
		if err := httpx.GetJSON(context.Background(), authed.client(), daemonURL+"/hub/status", &st); err != nil {
			t.Fatalf("hub status: %v", err)
		}
		return st
	}

	// Attach the fleet first — a daemon nobody called computes locally.
	workers := make([]*exec.Cmd, 3)
	for i := range workers {
		workers[i] = exec.Command(bin, "worker", "-coordinator", daemonURL+"/hub",
			"-token", token, "-persist", "-name", fmt.Sprintf("chaos-w%d", i))
		workers[i].Stdout = os.Stderr
		workers[i].Stderr = os.Stderr
		if err := workers[i].Start(); err != nil {
			t.Fatal(err)
		}
		defer workers[i].Process.Kill()
	}
	deadline := time.Now().Add(time.Minute)
	for hubStatusAuthed().ActiveWorkers < len(workers) {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never attached: %+v", hubStatusAuthed())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Fire every request and let the fleet chew; once the grid is moving,
	// SIGKILL one worker outright — its leases expire and the survivors
	// reclaim the cells.
	results := make([]<-chan postResult, len(reqs))
	for i, rq := range reqs {
		results[i] = postAsyncWith(authed.client(), daemonURL, rq.path, rq.body)
	}
	deadline = time.Now().Add(2 * time.Minute)
	for {
		st := hubStatusAuthed()
		if st.Committed >= 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never made progress: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	workers[0].Process.Kill()
	workers[0].Wait()
	t.Log("SIGKILLed worker chaos-w0 mid-sweep")

	for i, rq := range reqs {
		res := <-results[i]
		if res.err != nil {
			t.Fatalf("%s: %v", rq.name, res.err)
		}
		if res.status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", rq.name, res.status, res.body)
		}
		if !bytes.Equal(res.body, want[i]) {
			t.Fatalf("%s diverged from local under chaos (%d vs %d bytes)", rq.name, len(res.body), len(want[i]))
		}
	}
	snap, err := authed.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Dispatch.Dispatched != uint64(len(reqs)) || len(snap.Dispatch.Degraded) != 0 {
		t.Fatalf("chaos broke the dispatch path: %+v", snap.Dispatch)
	}

	// Graceful drains: SIGTERM must walk every process out with exit 0.
	drain := func(name string, cmd *exec.Cmd) {
		t.Helper()
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("SIGTERM %s: %v", name, err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s exited dirty after SIGTERM: %v", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s did not drain after SIGTERM", name)
		}
	}
	drain("daemon", daemon)
	for i, w := range workers[1:] {
		drain(fmt.Sprintf("worker-%d", i+1), w)
	}
}
