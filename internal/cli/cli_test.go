package cli

import (
	"bytes"
	"context"
	"flag"
	"fmt"
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

// TestRobustnessParamsAgree holds `saga robustness`, its -server form
// and a worker's shard of the robustness sweep to one verdict on -n,
// -sigma and -seed. What the local run refuses, the other two refuse
// with the same message, -server before any request reaches the
// daemon, and the daemon itself refuses a finite sigma out of range in
// the same words. -server alone refuses -sigma 0 and -seed 0, which the
// daemon would read as omitted and replace with its defaults.
func TestRobustnessParamsAgree(t *testing.T) {
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
	names := []string{"in", "n", "sigma", "seed"}
	for i, tc := range []struct {
		args     []string
		refused  bool // by all three
		onServer bool // by -server alone
		direct   bool // JSON can carry the value: POST it to the daemon too
	}{
		{[]string{"-n", "0"}, true, false, false},
		{[]string{"-n", "-1"}, true, false, false},
		{[]string{"-sigma", "NaN"}, true, false, false},
		{[]string{"-sigma", "Inf"}, true, false, false},
		{[]string{"-sigma", "-1"}, true, false, true},
		{[]string{"-sigma", "50"}, true, false, true},
		{[]string{"-sigma", "0"}, false, true, false},
		{[]string{"-seed", "0"}, false, true, false},
		{[]string{"-sigma", "10"}, false, false, false},
	} {
		args := append([]string{"-in", in, "-n", "4"}, tc.args...)
		local, remote, worker := Defaults(), Defaults(), Defaults()
		parse(t, local, args, names...)
		parse(t, remote, append([]string{"-server", daemon.URL}, args...), append(names, "server")...)
		parse(t, worker, args, names...)
		worker.Checkpoint, worker.Shard = filepath.Join(dir, fmt.Sprintf("w%d.ckpt", i)), "0/1"

		lr, lerr := local.Robustness(ctx)
		before := hits.Load()
		rr, rerr := remote.Robustness(ctx)
		p, err := worker.Params()
		if err != nil {
			t.Fatal(err)
		}
		_, werr := Run[any](worker, "robustness", p)

		switch {
		case tc.refused:
			if lerr == nil || rerr == nil || werr == nil || rerr.Error() != lerr.Error() || werr.Error() != lerr.Error() {
				t.Fatalf("%v: local %v, -server %v, worker %v; want the same refusal", tc.args, lerr, rerr, werr)
			}
			if hits.Load() != before {
				t.Fatalf("%v: the refused -server request reached the daemon", tc.args)
			}
			if tc.direct {
				c := serve.Client{BaseURL: daemon.URL}
				_, derr := c.Robustness(ctx, serve.RobustnessRequest{Scheduler: p.Scheduler, Instance: p.InstanceRaw, Sigma: p.Sigma, N: p.N, Seed: p.Seed})
				if derr == nil || !strings.Contains(derr.Error(), lerr.Error()) {
					t.Fatalf("%v: the daemon answered %v, want %q", tc.args, derr, lerr)
				}
			}
		case tc.onServer:
			if lerr != nil || werr != nil || rerr == nil || hits.Load() != before {
				t.Fatalf("%v: local %v, worker %v, -server %v (daemon hit %v); want only -server refused, before dialing",
					tc.args, lerr, werr, rerr, hits.Load() != before)
			}
		default:
			if lerr != nil || werr != nil || rerr != nil || !reflect.DeepEqual(rr, lr) {
				t.Fatalf("%v: local %v, -server %v, worker %v; -server %+v vs local %+v", tc.args, lerr, rerr, werr, rr, lr)
			}
		}
	}
}
