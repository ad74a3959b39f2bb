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
	tr.check("testdata/golden.txt")
}

// TestRefusesIgnoredFlags holds each mode that ignores some flags to
// naming exactly those flags that were set, and to running when none
// were: defaults never count, and the flags a mode does use (-workers,
// -name, -persist, -token and -progress with -coordinator) never trip it.
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
		refused string // the flags named, "" when the command must run
	}{
		{"worker", []string{"-coordinator", dead.URL, "-n", "5", "-seed", "2", "-iters", "9", "-restarts", "1", "-workflow", "blast",
			"-ccr", "1", "-scheduler", "CPoP", "-sigma", "0.1", "-in", "x.json", "-chain-workers", "2"},
			"-ccr, -chain-workers, -in, -iters, -n, -restarts, -scheduler, -seed, -sigma, -workflow"},
		{"worker", []string{"-coordinator", dead.URL, "-driver", "fig7", "-shard", "0/2", "-checkpoint", "s.ckpt"}, "-checkpoint, -driver, -shard"},
		{"worker", []string{"-coordinator", dead.URL, "-workers", "1", "-name", "w", "-persist", "-token", "T", "-progress", "-seed", "3"}, "-seed"},
		{"worker", []string{"-coordinator", hub.URL, "-workers", "1", "-name", "w", "-token", "", "-progress"}, ""},
		{"coordinate", []string{"-watch", dead.URL, "-driver", "fig4", "-checkpoint", "c.ckpt", "-iters", "5"}, "-checkpoint, -driver, -iters"},
		{"coordinate", []string{"-watch", dead.URL, "-addr", ":0", "-lease", "2", "-lease-ttl", "1s", "-retries", "1",
			"-retry-backoff", "1s", "-shuffle-seed", "4", "-verbose"},
			"-addr, -lease, -lease-ttl, -retries, -retry-backoff, -shuffle-seed, -verbose"},
		{"coordinate", []string{"-watch", hub.URL, "-interval", "1ms", "-token", ""}, ""},
		{"pisa", []string{"-method", "ga", "-restarts", "2", "-trace", trace}, "-restarts, -trace"},
		{"pisa", []string{"-method", "ga", "-iters", "10", "-seed", "2", "-workers", "1"}, ""},
		{"pisa", []string{"-iters", "10", "-restarts", "1", "-trace", trace}, ""},
	} {
		line := c.cmd + " " + strings.Join(c.args, " ")
		err := commands[c.cmd](c.args)
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%s: %v", line, err)
		case c.refused != "" && (err == nil || !strings.HasPrefix(err.Error(), c.refused+" not used")):
			t.Errorf("%s: got %v, want %s refused", line, err, c.refused)
		}
	}
}
