package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"saga/internal/render"
	"saga/internal/runner"
	"saga/internal/serialize"
)

// resumeOnly serves a committed store and fails the test on any Store:
// a resume that computes a cell is not reading the store it was given.
type resumeOnly struct {
	*serialize.Checkpoint
	t *testing.T
}

func (c resumeOnly) Store(index int, _ json.RawMessage) error {
	c.t.Errorf("cell %d was recomputed instead of read from the store", index)
	return fmt.Errorf("cell %d recomputed", index)
}

// rendered binds d to p, runs it under ro and renders its result.
func rendered[T any](d SweepDef[T], show func(SweepParams, T) string) func(SweepParams, runner.Options) (string, error) {
	return func(p SweepParams, ro runner.Options) (string, error) {
		_, compute, err := d.Bind(p)
		if err != nil {
			return "", err
		}
		res, err := compute(ro)
		if err != nil {
			return "", err
		}
		return show(p, res), nil
	}
}

// TestCommittedStoresResume is the net under the sweep definitions: every
// sweep has a sealed toy-size store under testdata/stores, written by an
// earlier build with `saga worker -shard 0/1`. Each must resume, by name
// and through its definition, without computing a cell, and render what
// the command that prints it printed then (the .txt beside the store):
// the figures grid or histograms, the `saga robustness` summary, or the
// portfolio answer's ratios and members.
func TestCommittedStoresResume(t *testing.T) {
	dir := filepath.Join("testdata", "stores")
	inst, err := os.ReadFile(filepath.Join(dir, "robustness.instance.json"))
	if err != nil {
		t.Fatal(err)
	}
	family := func(_ SweepParams, r *FamilyResult) string {
		var b strings.Builder
		for _, s := range r.Schedulers {
			b.WriteString(render.Histogram(s, r.Makespans[s], 10))
		}
		return b.String()
	}
	cases := []struct {
		name   string
		params func(p *SweepParams)
		render func(SweepParams, runner.Options) (string, error)
	}{
		{"fig2", nil, rendered(Fig2, func(p SweepParams, r *BenchmarkResult) string {
			return render.Grid(fmt.Sprintf("max makespan ratio over %d instances/dataset (color-scale cap: > 5.0)", p.N),
				r.Datasets, r.Schedulers, r.MaxGrid())
		})},
		{"fig4", nil, rendered(Fig4, func(p SweepParams, r *PairwiseResult) string {
			return render.Grid(fmt.Sprintf("cell (row i, col j) = worst-case ratio of scheduler j vs base i (%d restarts x %d iters)", p.Restarts, p.Iters),
				append([]string{"Worst"}, r.Schedulers...), r.Schedulers, append([][]float64{r.Worst}, r.Ratios...))
		})},
		{"fig7", nil, rendered(Fig7, family)},
		{"fig8", nil, rendered(Fig8, family)},
		{"appspecific", func(p *SweepParams) { p.Workflow, p.CCR = "srasearch", 1 }, rendered(AppSpecific, func(_ SweepParams, r *AppSpecificResult) string {
			return render.Grid("", append(append([]string{}, r.Schedulers...), "Benchmarking"), r.Schedulers,
				append(append([][]float64{}, r.Ratios...), r.Benchmark))
		})},
		{"robustness", func(p *SweepParams) { p.N, p.Scheduler, p.Sigma, p.InstanceRaw = 12, "HEFT", 0.2, inst }, rendered(Robustness, func(p SweepParams, r *RobustnessResult) string {
			return fmt.Sprintf("%s nominal makespan: %.4f\n", r.Scheduler, r.Nominal) +
				fmt.Sprintf("static replay under +/-%.0f%% cost jitter (n=%d): mean %.4f  p50 %.4f  max %.4f\n",
					p.Sigma*100, r.Static.N, r.Static.Mean, r.Static.Median, r.Static.Max) +
				fmt.Sprintf("adaptive re-planning:                              mean %.4f  p50 %.4f  max %.4f\n",
					r.Adaptive.Mean, r.Adaptive.Median, r.Adaptive.Max)
		})},
		{"pairwise", func(p *SweepParams) { p.Schedulers, p.Iters = []string{"HEFT", "CPoP", "MinMin", "OLB"}, 20 }, rendered(Pairwise, func(_ SweepParams, r *PairwiseResult) string {
			port, err := SelectPortfolio(r.Schedulers, r.Ratios, 2)
			if err != nil {
				return err.Error()
			}
			return fmt.Sprintf("ratios %v\nmembers %s\nworst %v\n", r.Ratios, strings.Join(port.Members, " + "), port.WorstRatio)
		})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := SweepParams{N: 3, Iters: 5, Restarts: 1, Seed: 1}
			if c.params != nil {
				c.params(&p)
			}
			raw, err := os.ReadFile(filepath.Join(dir, c.name+".ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), c.name+".ckpt")
			if err := os.WriteFile(path, raw, 0o600); err != nil {
				t.Fatal(err)
			}
			sw, err := NewSweep(c.name, p)
			if err != nil {
				t.Fatal(err)
			}
			resume := func() runner.Options {
				ck := serialize.NewCheckpoint(path)
				ck.SetFingerprint(sw.Fingerprint)
				return runner.Options{Workers: 2, Checkpoint: resumeOnly{ck, t}}
			}
			if err := sw.Run(resume()); err != nil {
				t.Fatal(err)
			}
			got, err := c.render(p, resume())
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join(dir, c.name+".txt")
			if want, err := os.ReadFile(golden); err != nil || got != string(want) {
				t.Errorf("%s resumed from its committed store renders\n%s\nwant (%s, %v):\n%s", c.name, got, golden, err, want)
			}
		})
	}
}
