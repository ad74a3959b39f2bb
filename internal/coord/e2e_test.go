package coord

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
	"testing"
	"time"

	"saga/internal/experiments"
)

// TestCoordSmokeE2E is the process-level twin of the in-process fault
// suite: a real `saga coordinate` process, three real `saga worker
// -coordinator` processes, one of them SIGKILLed mid-sweep, and the
// coordinator's store asserted byte-identical to the sequential
// reference. It builds the saga binary and forks processes, so it only
// runs when COORD_SMOKE=1 (wired up as `make coord-smoke`, part of
// `make verify`).
func TestCoordSmokeE2E(t *testing.T) {
	if os.Getenv("COORD_SMOKE") != "1" {
		t.Skip("set COORD_SMOKE=1 to run the process-level coordinator smoke test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "saga")
	build := exec.Command("go", "build", "-o", bin, "saga/cmd/saga")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build saga: %v\n%s", err, out)
	}

	// The sweep: the full Fig 4 pairwise grid (210 cells) at the paper's
	// 1000 iterations and one restart, which one worker on one core
	// takes about 250 ms over on a 2-core host: long enough for polls
	// every 10 ms to land mid-sweep, short enough for a quick drill.
	params := experiments.SweepParams{Iters: 1000, Restarts: 1, Seed: 4}
	ref := sequentialReference(t, dir, "fig4", params)

	storePath := filepath.Join(dir, "store.ckpt")
	coordProc := exec.Command(bin, "coordinate",
		"-driver", "fig4", "-checkpoint", storePath, "-addr", "127.0.0.1:0",
		"-lease", "4", "-lease-ttl", "1s", "-retry-backoff", "100ms",
		"-iters", "1000", "-restarts", "1", "-seed", "4")
	stdout, err := coordProc.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	coordProc.Stderr = os.Stderr
	if err := coordProc.Start(); err != nil {
		t.Fatal(err)
	}
	defer coordProc.Process.Kill()

	// The coordinator prints its bound address; workers and the status
	// poller need it.
	urlRe := regexp.MustCompile(`on (http://[0-9.:]+)`)
	var baseURL string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if m := urlRe.FindStringSubmatch(sc.Text()); m != nil {
			baseURL = m[1]
			break
		}
	}
	if baseURL == "" {
		t.Fatalf("coordinator never printed its address (scan error: %v)", sc.Err())
	}
	// The coordinator's stdout reaches EOF when the process exits.
	exited := make(chan struct{})
	go func() { // drain the rest so the coordinator never blocks on stdout
		for sc.Scan() {
		}
		close(exited)
	}()

	workers := make([]*exec.Cmd, 3)
	startWorker := func(i int, args ...string) {
		workers[i] = exec.Command(bin, append([]string{"worker",
			"-coordinator", baseURL, "-name", fmt.Sprintf("smoke-w%d", i)}, args...)...)
		workers[i].Stdout = os.Stderr
		workers[i].Stderr = os.Stderr
		if err := workers[i].Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { workers[i].Process.Kill() })
	}

	// The victim starts alone, on one runner worker, so the sweep runs
	// at one core's pace until the kill window opens; the survivors join
	// just before the kill. Then the victim dies outright — SIGKILL, no
	// goodbye — while cells it leased are still outstanding.
	startWorker(0, "-workers", "1")
	status := func() (Status, error) {
		var st Status
		resp, err := http.Get(baseURL + "/status")
		if err != nil {
			return st, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return st, fmt.Errorf("GET /status: %s", resp.Status)
		}
		return st, json.NewDecoder(resp.Body).Decode(&st)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, err := status()
		if err == nil && st.Committed >= 4 && st.Cells-st.Committed > 20 {
			break
		}
		select {
		case <-exited:
			t.Fatalf("coordinator exited before a kill window (last status %+v, %v)", st, err)
		default:
		}
		if st.Done || time.Now().After(deadline) {
			t.Fatalf("no mid-sweep window to kill a worker in (status %+v, %v)", st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	startWorker(1)
	startWorker(2)
	if err := workers[0].Process.Kill(); err != nil {
		t.Fatalf("kill worker: %v", err)
	}
	workers[0].Wait()
	t.Log("killed worker smoke-w0 mid-sweep")

	// The survivors finish the sweep — including the dead worker's
	// reclaimed cells — and the coordinator exits cleanly.
	coordDone := make(chan error, 1)
	go func() { coordDone <- coordProc.Wait() }()
	select {
	case err := <-coordDone:
		if err != nil {
			t.Fatalf("coordinator exited with %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("coordinator did not finish after the worker kill")
	}
	for _, w := range workers[1:] {
		if err := w.Wait(); err != nil {
			t.Fatalf("surviving worker exited with %v", err)
		}
	}

	got, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		t.Fatalf("store after worker kill diverged from the sequential reference (%d vs %d bytes)", len(got), len(ref))
	}
}
