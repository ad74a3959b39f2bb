package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"saga/internal/cli"
	"saga/internal/datasets"
	"saga/internal/serialize"
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
