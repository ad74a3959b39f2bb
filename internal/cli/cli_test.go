package cli

import (
	"bytes"
	"context"
	"flag"
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

// TestRobustnessRefusesNoPerturbations: -n below 1 is refused with the
// local run's message, and with -server before any request reaches the
// daemon, which would read n = 0 as omitted and run its default.
func TestRobustnessRefusesNoPerturbations(t *testing.T) {
	var hits atomic.Int32
	daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { hits.Add(1) }))
	defer daemon.Close()
	in := writeInstance(t, t.TempDir())
	for _, n := range []string{"0", "-1"} {
		local, remote := Defaults(), Defaults()
		parse(t, local, []string{"-in", in, "-n", n}, "in", "n")
		parse(t, remote, []string{"-server", daemon.URL, "-in", in, "-n", n}, "server", "in", "n")
		_, lerr := local.Robustness(context.Background())
		_, rerr := remote.Robustness(context.Background())
		if lerr == nil || rerr == nil || rerr.Error() != lerr.Error() {
			t.Fatalf("-n %s: local %v, -server %v; want the same refusal", n, lerr, rerr)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("the daemon saw %d requests, want 0", n)
	}
}
