package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"saga/internal/cli"
)

// TestGoldenTranscript runs the sweep figures in process at toy sizes
// and compares everything they print with testdata/golden.txt, which
// was recorded with the separately built CLIs before their glue moved
// into internal/cli. Only the shard-complete lines have been reworded
// since. After each of fig7 and fig2 comes the static-shard path end to
// end: two shards, `saga merge`, then a render of the merged store,
// which must print exactly what the unsharded run printed. The fig2
// lines come last: its unsharded output was recorded from the build
// before Fig 2 became a sweep, and its shard and merge lines when it
// did.
func TestGoldenTranscript(t *testing.T) {
	dir := t.TempDir()
	tr := &transcript{t: t, mask: strings.NewReplacer(dir, "<dir>")}
	toy := []string{"-n", "3", "-iters", "5", "-restarts", "1"}
	figures := func(args ...string) string {
		return tr.run("figures", run, append(toy, args...)...)
	}
	shardMergeRender := func(name, whole string) {
		t.Helper()
		shards := []string{filepath.Join(dir, name+"-0.ckpt"), filepath.Join(dir, name+"-1.ckpt")}
		figures("-checkpoint", shards[0], "-shard", "0/2", name)
		figures("-checkpoint", shards[1], "-shard", "1/2", name)
		merged := filepath.Join(dir, name+".ckpt")
		tr.run("saga merge", cli.Merge, append(append([]string{"-driver", name}, toy...), "-out", merged, shards[0], shards[1])...)
		if got := figures("-checkpoint", merged, name); got != whole {
			t.Errorf("%s rendered from the merged store differs from the unsharded run:\n%s\nwant:\n%s", name, got, whole)
		}
	}
	figures("fig4")
	fig7 := figures("fig7")
	figures("fig8")
	figures("-ccr", "1", "appspecific")
	shardMergeRender("fig7", fig7)
	shardMergeRender("fig2", figures("fig2"))
	tr.check("testdata/golden.txt")
}

// TestFig4PaperScaleGolden pins the paper-scale Fig 4 grid (1000
// iterations, 5 restarts, one worker) for seeds 1-3 to the stdout an
// earlier build printed, recorded in testdata/fig4_paper.txt. It is the
// byte-identity net for changes to the schedulers, the placement kernel
// and the PISA loop that the toy-size transcript is too small to
// exercise.
func TestFig4PaperScaleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale fig4 takes a few seconds")
	}
	tr := &transcript{t: t, mask: strings.NewReplacer()}
	for _, seed := range []string{"1", "2", "3"} {
		tr.run("figures", run, "-iters", "1000", "-restarts", "5", "-seed", seed, "-workers", "1", "fig4")
	}
	tr.check("testdata/fig4_paper.txt")
}

// TestOneStoreOneFigure: a store holds one sweep, and `all` runs four,
// so -checkpoint (or -shard) with `all` or with two figures is refused
// before any figure prints a line or a store is created.
func TestOneStoreOneFigure(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "one.ckpt")
	for _, figs := range [][]string{{"all"}, {"fig1", "all"}, {"fig7", "fig8"}} {
		out, err := os.CreateTemp(dir, "stdout")
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = out
		err = run(append([]string{"-n", "3", "-iters", "5", "-restarts", "1", "-checkpoint", store}, figs...))
		os.Stdout = stdout
		st, serr := out.Stat()
		out.Close()
		if err == nil || !strings.Contains(err.Error(), "a store holds one sweep") {
			t.Fatalf("figures -checkpoint %v: %v", figs, err)
		}
		if serr != nil || st.Size() != 0 {
			t.Fatalf("figures -checkpoint %v printed before refusing (%v)", figs, serr)
		}
		if _, err := os.Stat(store); !os.IsNotExist(err) {
			t.Fatalf("figures -checkpoint %v created the store: %v", figs, err)
		}
	}
}
