package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"saga/internal/serve"
)

// resultLines returns the JSON result lines of a run's stdout, one per
// workload.
func resultLines(t *testing.T, stdout string) []report {
	t.Helper()
	var reps []report
	for _, line := range strings.Split(stdout, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var rep report
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			t.Fatalf("bad result line %q: %v", line, err)
		}
		reps = append(reps, rep)
	}
	return reps
}

// TestSmoke runs every workload end to end and one traced pass at toy
// sizes: every declared metric must come out once, finite and under a
// well-formed name (run fails otherwise), no operation may fail, and
// nothing may be left behind. Run it with `go test -C bench ./...`; it
// is not part of the root module's tests.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the CLIs; skipped under -short")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, tc := range []struct {
		args  []string
		decls []metricDecl
		runs  int
	}{
		{[]string{"-smoke", "-seconds", "1", "-seed", "5", "-out", out}, sp.EndToEnd, len(workloads)},
		{[]string{"-smoke", "-seconds", "1", "-seed", "5", "-out", out, "-trace", "1", "-workload", "serve_cold"}, sp.PerLayer, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("bench %v: exit %d\n%s\n%s", tc.args, code, stdout.String(), stderr.String())
		}
		reps := resultLines(t, stdout.String())
		if len(reps) != tc.runs {
			t.Fatalf("bench %v: %d result lines, want %d", tc.args, len(reps), tc.runs)
		}
		for _, rep := range reps {
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("bench %v: correct=%v attempted=%d failed=%d", tc.args, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(tc.decls) {
				t.Errorf("bench %v: %d metrics, want the %d declared", tc.args, len(rep.Metrics), len(tc.decls))
			}
			for _, d := range tc.decls {
				if m, ok := rep.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("bench %v: metric %s missing or in unit %q, want %q", tc.args, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join(out, "trace.json")); err != nil {
		t.Errorf("traced run wrote no trace.json: %v", err)
	}
	left, err := filepath.Glob(filepath.Join(root, ".bench_build", "tmp", "run-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("temp dirs left behind: %v %v", left, err)
	}
}

// TestCorruptedExpectationFails checks that the response check is live:
// against a correct daemon, a request whose expected body was tampered
// with must count as failed, and an untouched one must not.
func TestCorruptedExpectationFails(t *testing.T) {
	reqs, err := buildRequests(smokeSizes, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(serve.Options{}))
	defer ts.Close()
	good := load(ts.URL, reqs[:1], 1, 50*time.Millisecond)
	if good.failed != 0 || len(good.lat) == 0 {
		t.Fatalf("untouched request: %d of %d failed: %v", good.failed, good.attempted, good.failures)
	}
	want := append([]byte(nil), reqs[0].want...)
	want[len(want)/2] ^= 1
	bad := load(ts.URL, []request{{body: reqs[0].body, want: want}}, 1, 50*time.Millisecond)
	if bad.failed != bad.attempted || bad.attempted == 0 || len(bad.lat) != 0 {
		t.Fatalf("tampered expectation: %d of %d failed, %d verified", bad.failed, bad.attempted, len(bad.lat))
	}
}

// TestCloseReapsChildren checks that closing the environment kills and
// reaps a daemon that is still serving, and removes the temp dir.
func TestCloseReapsChildren(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the CLIs; skipped under -short")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root, smokeSizes, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	d, err := bootServe(e)
	if err != nil {
		e.close()
		t.Fatal(err)
	}
	e.close()
	select {
	case <-d.done:
	default:
		t.Fatal("daemon not reaped by close")
	}
	if _, err := os.Stat(e.tmp); !os.IsNotExist(err) {
		t.Fatalf("temp dir %s survives close: %v", e.tmp, err)
	}
}
