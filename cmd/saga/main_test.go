package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"saga/internal/cli"
	"saga/internal/datasets"
	"saga/internal/experiments"
	"saga/internal/httpx"
	"saga/internal/scheduler"
	"saga/internal/serialize"
	"saga/internal/serve"
)

// TestRobustnessKeepsAMergedStore pins the finish policy on the command
// `saga merge` itself prints: summarizing a merged robustness store with
// `saga robustness -checkpoint <merged>` reads every cell, stores none,
// and must therefore leave the store — which this process did not write
// — in place, however often it is run.
func TestRobustnessKeepsAMergedStore(t *testing.T) {
	dir := t.TempDir()
	raw, err := serialize.MarshalInstance(datasets.Fig1Instance())
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "instance.json")
	if err := os.WriteFile(in, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sweep := []string{"-in", in, "-scheduler", "CPoP", "-n", "12", "-seed", "5", "-sigma", "0.25"}

	shards := make([]string, 2)
	for i := range shards {
		shards[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.ckpt", i))
		args := append([]string{"-shard", fmt.Sprintf("%d/2", i), "-checkpoint", shards[i]}, sweep...)
		if err := robustnessCmd(args); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	merged := filepath.Join(dir, "merged.ckpt")
	if err := cli.Merge(append(append([]string{"-driver", "robustness", "-out", merged}, sweep...), shards...)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 2; run++ {
		if err := robustnessCmd(append([]string{"-checkpoint", merged}, sweep...)); err != nil {
			t.Fatalf("summary run %d: %v", run, err)
		}
		after, err := os.ReadFile(merged)
		if err != nil {
			t.Fatalf("summary run %d consumed the merged store: %v", run, err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("summary run %d stored into a complete store (%d -> %d bytes)", run, len(before), len(after))
		}
	}

	// The other half of the policy: a run that computed its cells owns
	// its store and removes it.
	own := filepath.Join(dir, "own.ckpt")
	if err := robustnessCmd(append([]string{"-checkpoint", own}, sweep...)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(own); !os.IsNotExist(err) {
		t.Fatalf("a completed run left its checkpoint behind: %v", err)
	}
}

// TestPortfolioRefusesUnboundedEnumeration: `saga portfolio` over 32
// schedulers with -k 16 asks for C(32,16) candidate portfolios. Locally
// and against a daemon it fails with the same words; the daemon's are
// its 400 body.
func TestPortfolioRefusesUnboundedEnumeration(t *testing.T) {
	daemon := httptest.NewServer(serve.New(serve.Options{}))
	defer daemon.Close()
	all := scheduler.Names()
	names := make([]string, 32)
	for i := range names {
		names[i] = all[i%len(all)]
	}
	args := []string{"-k", "16", "-schedulers", strings.Join(names, ","), "-iters", "5", "-restarts", "1"}
	local := portfolioCmd(args)
	remote := portfolioCmd(append([]string{"-server", daemon.URL}, args...))
	var se *httpx.StatusError
	if !errors.As(remote, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("-server: %v, want a 400", remote)
	}
	if local == nil || local.Error() != se.Body {
		t.Fatalf("local run: %v, daemon: %q", local, se.Body)
	}
}

// TestPairwiseShardsMerge runs the pairwise sweep the way `saga worker`
// and `saga merge` advertise it: two -schedulers shards, then the merge,
// whose store must hold exactly the cells of a one-shard run.
func TestPairwiseShardsMerge(t *testing.T) {
	dir := t.TempDir()
	sweep := []string{"-driver", "pairwise", "-schedulers", "HEFT,CPoP,MinMin", "-iters", "5", "-restarts", "1"}
	shard := func(spec, path string) {
		t.Helper()
		if err := workerCmd(append([]string{"-shard", spec, "-checkpoint", path}, sweep...)); err != nil {
			t.Fatalf("worker -shard %s: %v", spec, err)
		}
	}
	shards := []string{filepath.Join(dir, "p-0.ckpt"), filepath.Join(dir, "p-1.ckpt")}
	shard("0/2", shards[0])
	shard("1/2", shards[1])
	merged := filepath.Join(dir, "p.ckpt")
	if err := cli.Merge(append(append(sweep, "-out", merged), shards...)); err != nil {
		t.Fatal(err)
	}
	whole := filepath.Join(dir, "whole.ckpt")
	shard("0/1", whole)

	sw, err := experiments.NewSweep("pairwise", experiments.SweepParams{
		Schedulers: []string{"HEFT", "CPoP", "MinMin"}, Iters: 5, Restarts: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	load := func(path string) map[int]string {
		t.Helper()
		ck := serialize.NewCheckpoint(path)
		ck.SetFingerprint(sw.Fingerprint)
		cells, err := ck.Load()
		if err != nil {
			t.Fatal(err)
		}
		out := map[int]string{}
		for k, raw := range cells {
			out[k] = string(raw)
		}
		return out
	}
	got, want := load(merged), load(whole)
	if len(want) != sw.Cells || !reflect.DeepEqual(got, want) {
		t.Fatalf("merged store holds %d cells, the one-shard store %d of %d; equal: %v",
			len(got), len(want), sw.Cells, reflect.DeepEqual(got, want))
	}
}
