package main

import (
	"path/filepath"
	"strings"
	"testing"

	"saga/internal/cli"
)

// TestGoldenTranscript runs the sweep figures in process at toy sizes
// and compares everything they print with testdata/golden.txt, which
// was recorded with the separately built CLIs before their glue moved
// into internal/cli. Only the shard-complete lines have been reworded
// since. The second half is the static-shard path end to end: two fig7
// shards, `saga merge`, then a render of the merged store, which must
// print exactly what the unsharded run printed.
func TestGoldenTranscript(t *testing.T) {
	dir := t.TempDir()
	tr := &transcript{t: t, mask: strings.NewReplacer(dir, "<dir>")}
	toy := []string{"-n", "3", "-iters", "5", "-restarts", "1"}
	figures := func(args ...string) string {
		return tr.run("figures", run, append(toy, args...)...)
	}
	figures("fig4")
	fig7 := figures("fig7")
	figures("fig8")
	figures("-ccr", "1", "appspecific")

	shards := []string{filepath.Join(dir, "fig7-0.ckpt"), filepath.Join(dir, "fig7-1.ckpt")}
	figures("-checkpoint", shards[0], "-shard", "0/2", "fig7")
	figures("-checkpoint", shards[1], "-shard", "1/2", "fig7")
	merged := filepath.Join(dir, "fig7.ckpt")
	tr.run("saga merge", cli.Merge, append(append([]string{"-driver", "fig7"}, toy...), "-out", merged, shards[0], shards[1])...)
	if got := figures("-checkpoint", merged, "fig7"); got != fig7 {
		t.Errorf("fig7 rendered from the merged store differs from the unsharded run:\n%s\nwant:\n%s", got, fig7)
	}
	tr.check("testdata/golden.txt")
}
