package main

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"saga/internal/coord"
	"saga/internal/serve"
)

// TestGoldenTranscript runs the sweep and daemon-client subcommands in
// process at toy sizes and compares everything they print with
// testdata/golden.txt, recorded with the separately built CLI before its
// glue moved into internal/cli. schedule, portfolio and robustness run
// twice, locally and with -server against a daemon: the thin client must
// print byte-for-byte what the local run prints. robustness also runs
// as two shards, `saga merge`, and a summary of the merged store.
// simulate replays a chains schedule, and an out_trees one whose
// makespan link contention stretches.
func TestGoldenTranscript(t *testing.T) {
	dir := t.TempDir()
	daemon := httptest.NewServer(serve.New(serve.Options{}))
	defer daemon.Close()
	tr := &transcript{t: t, mask: strings.NewReplacer(dir, "<dir>", daemon.URL, "<server>")}
	saga := func(cmd string, args ...string) string {
		return tr.run("saga "+cmd, commands[cmd], args...)
	}
	in := filepath.Join(dir, "i.json")
	saga("generate", "-dataset", "chains", "-seed", "1", "-out", in)
	saga("benchmark", "-n", "3")
	for _, c := range [][]string{
		{"schedule", "-in", in},
		{"portfolio", "-k", "2", "-iters", "5", "-restarts", "1"},
		{"robustness", "-in", in, "-n", "12"},
	} {
		local := saga(c[0], c[1:]...)
		if remote := saga(c[0], append([]string{"-server", daemon.URL}, c[1:]...)...); remote != local {
			t.Errorf("%s -server printed\n%s\nthe local run printed\n%s", c[0], remote, local)
		}
	}

	rob := []string{"-in", in, "-n", "12"}
	shards := []string{filepath.Join(dir, "r-0.ckpt"), filepath.Join(dir, "r-1.ckpt")}
	for i, s := range shards {
		saga("robustness", append(rob, "-checkpoint", s, "-shard", []string{"0/2", "1/2"}[i])...)
	}
	merged := filepath.Join(dir, "r.ckpt")
	saga("merge", append(append([]string{"-driver", "robustness"}, rob...), "-out", merged, shards[0], shards[1])...)
	saga("robustness", append(rob, "-checkpoint", merged)...)
	saga("simulate", "-in", in)
	trees := filepath.Join(dir, "o.json")
	saga("generate", "-dataset", "out_trees", "-seed", "2", "-out", trees)
	saga("simulate", "-in", trees, "-scheduler", "CPoP", "-contention")
	tr.check("testdata/golden.txt")
}

// TestRefusesIgnoredFlags holds each mode that ignores some flags to
// naming exactly those flags that were set, and to running when none
// were: defaults never count, and the flags a mode does use (-workers,
// -name, -persist, -token and -progress with -coordinator) never trip it.
// A -watch interval that would poll the hub back to back is refused too,
// as is every coordinate and serve value the library would quietly
// replace with its default.
func TestRefusesIgnoredFlags(t *testing.T) {
	// Refused cases point at a server that answers 404 to everything, so
	// a refusal that regressed fails at once instead of leasing forever.
	hub := httptest.NewServer(coord.NewHub(coord.HubOptions{})) // idle: a one-shot worker exits at once
	defer hub.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	defer dead.Close()
	trace := filepath.Join(t.TempDir(), "trace.csv")
	for _, c := range []struct {
		cmd     string
		args    []string
		refused string // the start of the error, "" when the command must run
	}{
		{"worker", []string{"-coordinator", dead.URL, "-n", "5", "-seed", "2", "-iters", "9", "-restarts", "1", "-workflow", "blast",
			"-ccr", "1", "-scheduler", "CPoP", "-sigma", "0.1", "-in", "x.json"},
			"-ccr, -in, -iters, -n, -restarts, -scheduler, -seed, -sigma, -workflow not used"},
		{"worker", []string{"-coordinator", dead.URL, "-driver", "fig7", "-shard", "0/2", "-checkpoint", "s.ckpt"}, "-checkpoint, -driver, -shard not used"},
		{"worker", []string{"-coordinator", dead.URL, "-workers", "1", "-name", "w", "-persist", "-token", "T", "-progress", "-seed", "3"}, "-seed not used"},
		{"worker", []string{"-coordinator", hub.URL, "-workers", "1", "-name", "w", "-token", "", "-progress"}, ""},
		{"coordinate", []string{"-watch", dead.URL, "-driver", "fig4", "-checkpoint", "c.ckpt", "-iters", "5"}, "-checkpoint, -driver, -iters not used"},
		{"coordinate", []string{"-watch", dead.URL, "-addr", ":0", "-lease", "2", "-lease-ttl", "1s", "-retries", "1",
			"-retry-backoff", "1s", "-shuffle-seed", "4", "-verbose"},
			"-addr, -lease, -lease-ttl, -retries, -retry-backoff, -shuffle-seed, -verbose not used"},
		{"coordinate", []string{"-watch", hub.URL, "-interval", "1ms", "-token", ""}, ""},
		{"coordinate", []string{"-watch", hub.URL, "-interval", "0s"}, "-interval 0s must be positive"},
		{"coordinate", []string{"-watch", hub.URL, "-interval", "-1s"}, "-interval -1s must be positive"},
		{"coordinate", []string{"-driver", "fig4", "-checkpoint", "c.ckpt", "-lease", "0"}, "-lease 0 must be positive"},
		{"coordinate", []string{"-driver", "fig4", "-checkpoint", "c.ckpt", "-lease-ttl", "-1s"}, "-lease-ttl -1s must be positive"},
		{"coordinate", []string{"-driver", "fig4", "-checkpoint", "c.ckpt", "-retries", "0"}, "-retries 0 must be positive"},
		{"coordinate", []string{"-driver", "fig4", "-checkpoint", "c.ckpt", "-retry-backoff", "0s"}, "-retry-backoff 0s must be positive"},
		{"serve", []string{"-cache", "0"}, "-cache 0 must be positive"},
		{"serve", []string{"-queue-timeout", "0s"}, "-queue-timeout 0s must be positive"},
		{"serve", []string{"-drain-timeout", "-1s"}, "-drain-timeout -1s must be positive"},
		{"serve", []string{"-degrade-window", "0s"}, "-degrade-window 0s must be positive"},
		{"serve", []string{"-max-concurrent", "-1"}, "-max-concurrent -1 must be positive"},
		{"pisa", []string{"-method", "ga", "-restarts", "2", "-trace", trace}, "-restarts, -trace not used"},
		{"pisa", []string{"-method", "ga", "-iters", "10", "-seed", "2"}, ""},
		{"pisa", []string{"-iters", "10", "-restarts", "1", "-trace", trace}, ""},
	} {
		line := c.cmd + " " + strings.Join(c.args, " ")
		err := commands[c.cmd](c.args)
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%s: %v", line, err)
		case c.refused != "" && (err == nil || !strings.HasPrefix(err.Error(), c.refused)):
			t.Errorf("%s: got %v, want %q…", line, err, c.refused)
		}
	}
}
