package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"saga/internal/datasets"
	"saga/internal/experiments"
	"saga/internal/serialize"
	"saga/internal/serve"
)

// parse registers names on a fresh flag set and parses args.
func parse(t *testing.T, f *Flags, args []string, names ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs, names...)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestRegisterBindsOnlyTheNamedFlags(t *testing.T) {
	f := Defaults()
	f.N = 7 // a command's own default, set before Register
	fs := parse(t, f, []string{"-seed", "9", "-schedulers", " HEFT , CPoP"}, "n", "seed", "schedulers")
	if f.N != 7 || f.Seed != 9 || !reflect.DeepEqual(f.Schedulers, []string{"HEFT", "CPoP"}) {
		t.Fatalf("parsed %+v", f.SweepParams)
	}
	if fs.Lookup("n").DefValue != "7" || fs.Lookup("iters") != nil {
		t.Fatal("Register must show the command's default and bind nothing it was not asked for")
	}
	if f.Iters != 250 || f.Restarts != 3 || f.Workflow != "srasearch" || f.Scheduler != "HEFT" || f.Sigma != 0.2 {
		t.Fatalf("unregistered fields lost their defaults: %+v", f.SweepParams)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an unknown flag name must panic")
		}
	}()
	f.Register(fs, "nope")
}

func TestRefuseNamesExplicitFlagsOnly(t *testing.T) {
	f := Defaults()
	fs := parse(t, f, []string{"-sigma", "0.2", "-iters", "250", "-workers", "2"}, append(SweepFlags, "workers")...)
	// Set to their defaults, -sigma and -iters still count: the user typed them.
	err := Refuse(fs, "here", SweepFlags...)
	if err == nil || err.Error() != "-iters, -sigma not used here" {
		t.Fatalf("got %v", err)
	}
	if err := Refuse(fs, "here", "n", "seed"); err != nil {
		t.Fatalf("defaults tripped the check: %v", err)
	}
}

// writeInstance stores a small instance for -in.
func writeInstance(t *testing.T, dir string) string {
	t.Helper()
	raw, err := serialize.MarshalInstance(datasets.Fig1Instance())
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "i.json")
	if err := os.WriteFile(in, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return in
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestRunStoreLifecycle walks the one store lifecycle: shards seal their
// stores and return no result, the merge covers them, a run over the
// merged store computes nothing and keeps it, and a run that computed
// its cells removes its own store.
func TestRunStoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	p := experiments.SweepParams{N: 5, Seed: 3}
	run := func(ckpt, shard string) *experiments.FamilyResult {
		t.Helper()
		f := Defaults()
		f.Checkpoint, f.Shard = ckpt, shard
		res, err := Run[*experiments.FamilyResult](f, "fig7", p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run("", "")

	f := Defaults()
	f.Shard = "0/2"
	if _, err := Run[*experiments.FamilyResult](f, "fig7", p); err == nil || !strings.Contains(err.Error(), "-shard requires -checkpoint") {
		t.Fatalf("a shard without a store: %v", err)
	}
	shards := []string{filepath.Join(dir, "s0.ckpt"), filepath.Join(dir, "s1.ckpt")}
	for i, s := range shards {
		if res := run(s, []string{"0/2", "1/2"}[i]); res != nil || !exists(s) {
			t.Fatalf("shard %d: result %v, store kept %v", i, res, exists(s))
		}
	}
	merged := filepath.Join(dir, "merged.ckpt")
	if err := Merge([]string{"-driver", "fig7", "-n", "5", "-seed", "3", "-out", merged, shards[0], shards[1]}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := run(merged, ""); !reflect.DeepEqual(got, want) || !exists(merged) {
			t.Fatalf("render %d of the merged store: kept %v, result %+v want %+v", i, exists(merged), got, want)
		}
	}
	own := filepath.Join(dir, "own.ckpt")
	if got := run(own, ""); !reflect.DeepEqual(got, want) || exists(own) {
		t.Fatalf("a run that computed its cells must remove its store (kept %v)", exists(own))
	}
}

// TestRunRefusesOldJSONStore: a one-object JSON store written before the
// stream format fails a resume or a shard run, naming the file, and is
// left as it was.
func TestRunRefusesOldJSONStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.ckpt")
	old := []byte(`{"fingerprint":"fig7","cells":{"0":{"makespans":[3.25,2.5]}}}`)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, shard := range []string{"", "0/1"} {
		f := Defaults()
		f.Checkpoint, f.Shard = path, shard
		_, err := Run[*experiments.FamilyResult](f, "fig7", experiments.SweepParams{N: 2, Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "corrupt or truncated") || !strings.Contains(err.Error(), path) {
			t.Fatalf("shard %q on an old JSON store: %v", shard, err)
		}
		if data, _ := os.ReadFile(path); !bytes.Equal(data, old) {
			t.Fatalf("shard %q rewrote the refused store", shard)
		}
	}
}

func TestMergeRequiresItsArguments(t *testing.T) {
	for _, args := range [][]string{{"-out", "x"}, {"-driver", "fig7", "-out", "x"}, {"-driver", "nope", "-out", "x", "s"}} {
		if err := Merge(args); err == nil {
			t.Errorf("merge %v succeeded", args)
		}
	}
}

// TestServerSwitch holds the three daemon clients to the in-process
// answers, value for value.
func TestServerSwitch(t *testing.T) {
	daemon := httptest.NewServer(serve.New(serve.Options{}))
	defer daemon.Close()
	in := writeInstance(t, t.TempDir())
	ctx := context.Background()
	both := func(args []string, names ...string) (local, remote *Flags) {
		local, remote = Defaults(), Defaults()
		parse(t, local, args, names...)
		parse(t, remote, append([]string{"-server", daemon.URL + "/"}, args...), append(names, "server")...)
		return local, remote
	}

	l, r := both([]string{"-in", in, "-scheduler", "CPoP"}, "in", "scheduler")
	ln, _, ls, err := l.Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rn, _, rs, err := r.Schedule(ctx)
	if err != nil || rn != ln || !reflect.DeepEqual(rs, ls) {
		t.Fatalf("schedule: %v: %s %+v vs %s %+v", err, rn, rs, ln, ls)
	}

	l, r = both([]string{"-schedulers", "HEFT,CPoP,MinMin", "-iters", "5", "-restarts", "1"}, "schedulers", "iters", "restarts")
	lp, err := l.Portfolio(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rp, err := r.Portfolio(ctx, 2); err != nil || !reflect.DeepEqual(rp, lp) {
		t.Fatalf("portfolio: %v: %+v vs %+v", err, rp, lp)
	}

	l, r = both([]string{"-in", in, "-n", "6"}, "in", "n")
	lr, err := l.Robustness(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rr, err := r.Robustness(ctx); err != nil || !reflect.DeepEqual(rr, lr) {
		t.Fatalf("robustness: %v: %+v vs %+v", err, rr, lr)
	}
	r.Checkpoint = "x.ckpt"
	if _, err := r.Robustness(ctx); err == nil {
		t.Fatal("-server with -checkpoint must be refused: the daemon owns the computation")
	}
	if _, err := Defaults().Robustness(ctx); err == nil {
		t.Fatal("robustness without -in")
	}
	if _, _, _, err := Defaults().Schedule(ctx); err == nil {
		t.Fatal("schedule without -in")
	}
}

// TestSweepParamsAgree holds `saga robustness` and `saga portfolio`,
// their -server forms and a worker's shard of the same sweep to one
// verdict on -n, -sigma, -iters, -restarts, -seed and the roster: what
// the local run refuses, the other two refuse with the same message,
// -server before any request reaches the daemon, and what it accepts
// they answer value for value, zeros included. A direct POST of the
// same request, with explicit JSON zeros, gets the same verdict from the
// daemon in the same words, or the local answer byte for byte; omit
// names keys the POST leaves out, which take the daemon's defaults.
func TestSweepParamsAgree(t *testing.T) {
	var hits atomic.Int32
	srv := serve.New(serve.Options{})
	daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		srv.ServeHTTP(w, r)
	}))
	defer daemon.Close()
	ctx := context.Background()
	dir := t.TempDir()
	in := writeInstance(t, dir)
	commands := map[string]struct {
		base    []string
		names   []string
		sweep   string // the sweep a worker's shard runs
		run     func(f *Flags) (any, error)
		path    string
		request func(p experiments.SweepParams) any
	}{
		"robustness": {[]string{"-in", in, "-n", "4"}, []string{"in", "n", "sigma", "seed"}, "robustness",
			func(f *Flags) (any, error) { return f.Robustness(ctx) }, "/v1/robustness",
			func(p experiments.SweepParams) any {
				return serve.RobustnessRequest{Scheduler: p.Scheduler, Instance: p.InstanceRaw, Sigma: p.Sigma, N: p.N, Seed: p.Seed}
			}},
		"portfolio": {[]string{"-schedulers", "HEFT,CPoP,MinMin", "-iters", "5", "-restarts", "1"},
			[]string{"schedulers", "iters", "restarts", "seed"}, "pairwise",
			func(f *Flags) (any, error) { return f.Portfolio(ctx, 1) }, "/v1/portfolio",
			func(p experiments.SweepParams) any {
				return serve.PortfolioRequest{Schedulers: p.Schedulers, K: 1, Iters: p.Iters, Restarts: p.Restarts, Seed: p.Seed}
			}},
	}
	for i, tc := range []struct {
		cmd     string
		args    []string
		refused bool     // by all three
		direct  bool     // JSON can carry the value: POST it to the daemon too
		omit    []string // keys the direct POST leaves out
	}{
		{"robustness", []string{"-n", "0"}, true, true, nil},
		{"robustness", []string{"-n", "-1"}, true, true, nil},
		{"robustness", []string{"-sigma", "NaN"}, true, false, nil},
		{"robustness", []string{"-sigma", "Inf"}, true, false, nil},
		{"robustness", []string{"-sigma", "-1"}, true, true, nil},
		{"robustness", []string{"-sigma", "50"}, true, true, nil},
		{"robustness", []string{"-sigma", "0"}, false, true, nil},
		{"robustness", []string{"-seed", "0"}, false, true, nil},
		{"robustness", []string{"-sigma", "10"}, false, true, nil},
		{"robustness", []string{"-n", "100", "-sigma", "0.2", "-seed", "1"}, false, true, []string{"sigma", "n", "seed"}},
		{"portfolio", []string{"-iters", "0"}, true, true, nil},
		{"portfolio", []string{"-iters", "-1"}, true, true, nil},
		{"portfolio", []string{"-restarts", "0"}, true, true, nil},
		{"portfolio", []string{"-schedulers", "HEFT,HEFT,CPoP"}, true, true, nil},
		{"portfolio", []string{"-seed", "0"}, false, true, nil},
		{"portfolio", []string{"-seed", "3"}, false, true, nil},
		{"portfolio", []string{"-iters", "250", "-restarts", "2", "-seed", "1"}, false, true, []string{"iters", "restarts", "seed"}},
	} {
		c := commands[tc.cmd]
		args := append(append([]string(nil), c.base...), tc.args...)
		local, remote, worker := Defaults(), Defaults(), Defaults()
		parse(t, local, args, c.names...)
		parse(t, remote, append([]string{"-server", daemon.URL}, args...), append(c.names, "server")...)
		parse(t, worker, args, c.names...)
		worker.Checkpoint, worker.Shard = filepath.Join(dir, fmt.Sprintf("w%d.ckpt", i)), "0/1"

		lr, lerr := c.run(local)
		before := hits.Load()
		rr, rerr := c.run(remote)
		p, err := worker.Params()
		if err != nil {
			t.Fatal(err)
		}
		_, werr := Run[any](worker, c.sweep, p)

		if tc.refused {
			if lerr == nil || rerr == nil || werr == nil || rerr.Error() != lerr.Error() || werr.Error() != lerr.Error() {
				t.Fatalf("%s %v: local %v, -server %v, worker %v; want the same refusal", tc.cmd, tc.args, lerr, rerr, werr)
			}
			if hits.Load() != before {
				t.Fatalf("%s %v: the refused -server request reached the daemon", tc.cmd, tc.args)
			}
		} else if lerr != nil || werr != nil || rerr != nil || !reflect.DeepEqual(rr, lr) {
			t.Fatalf("%s %v: local %v, -server %v, worker %v; -server %+v vs local %+v", tc.cmd, tc.args, lerr, rerr, werr, rr, lr)
		}
		if !tc.direct {
			continue
		}
		var body map[string]json.RawMessage
		if err := json.Unmarshal(mustJSON(t, c.request(p)), &body); err != nil {
			t.Fatal(err)
		}
		for _, k := range tc.omit {
			delete(body, k)
		}
		resp, err := http.Post(daemon.URL+c.path, "application/json", bytes.NewReader(mustJSON(t, body)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if tc.refused {
			if resp.StatusCode != http.StatusBadRequest || strings.TrimSpace(string(got)) != lerr.Error() {
				t.Fatalf("%s %v: the daemon answered %d %q, want 400 %q", tc.cmd, tc.args, resp.StatusCode, got, lerr)
			}
		} else if want := append(mustJSON(t, lr), '\n'); resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s %v: the daemon answered %d %s, want the local %s", tc.cmd, tc.args, resp.StatusCode, got, want)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
