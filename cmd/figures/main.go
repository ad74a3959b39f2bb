// Command figures regenerates every figure of the PISA paper as text
// output: Gantt charts for the worked examples (Figs 1, 3, 5, 6), the
// benchmarking grid (Fig 2), the pairwise PISA heatmap (Fig 4), the
// family studies (Figs 7, 8), the workflow structures (Fig 9), and the
// application-specific benchmarking+PISA grids (Figs 10-19).
//
// Usage:
//
//	figures [flags] <fig1|fig2|...|fig19|appspecific|all>
//
// Defaults are scaled down to finish in seconds; raise -n, -iters and
// -restarts to the paper's scale (-n 1000 -iters 1000 -restarts 5) for a
// full reproduction. Fig 2, Fig 4, Figs 7 and 8 and the
// application-specific grids are sweeps (experiments.Fig2 and kin): they
// take -checkpoint and -shard, and `saga worker`, `saga coordinate` and
// `saga merge` run the same sweeps with -driver. A store holds one
// sweep, so both flags take one named figure, never `all`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"saga/internal/cli"
	"saga/internal/datasets"
	"saga/internal/experiments"
	"saga/internal/graph"
	"saga/internal/render"
	"saga/internal/rng"
	"saga/internal/scheduler"
)

// figures is one invocation: the sweep and run flags shared with `saga`
// (internal/cli) plus -svgdir.
type figures struct {
	*cli.Flags
	fs     *flag.FlagSet
	svgDir string
}

var errUsage = errors.New("usage: figures [flags] <fig1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10...fig19|appspecific|all>")

func main() {
	switch err := run(os.Args[1:]); {
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}

// run parses the flags and renders every named figure in order.
func run(args []string) error {
	g := &figures{Flags: cli.Defaults(), fs: flag.NewFlagSet("figures", flag.ExitOnError)}
	g.Register(g.fs, "n", "seed", "iters", "restarts", "workflow", "ccr", "chain-workers",
		"workers", "progress", "checkpoint", "shard")
	g.fs.StringVar(&g.svgDir, "svgdir", "", "also write SVG renderings of grids and Gantt charts here")
	if err := g.fs.Parse(args); err != nil {
		return err
	}
	if g.fs.NArg() < 1 {
		return errUsage
	}
	if g.fs.NArg() > 1 || g.fs.Arg(0) == "all" {
		if err := cli.Refuse(g.fs, "with more than one figure: a store holds one sweep, so name one (fig2, fig4, fig7, fig8 or appspecific)", "checkpoint", "shard"); err != nil {
			return err
		}
	}
	for _, cmd := range g.fs.Args() {
		if err := g.figure(cmd); err != nil {
			return fmt.Errorf("%s: %w", cmd, err)
		}
	}
	return nil
}

// writeSVG writes an SVG artifact when -svgdir is set.
func (g *figures) writeSVG(name, content string) error {
	if g.svgDir == "" {
		return nil
	}
	if err := os.MkdirAll(g.svgDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(g.svgDir, name), []byte(content), 0o644)
}

// appendixWorkflows maps figure ids to Section VII / Appendix A
// workflows.
var appendixWorkflows = map[string]string{
	"fig10": "srasearch",
	"fig11": "blast",
	"fig12": "blast",
	"fig13": "srasearch",
	"fig14": "bwa",
	"fig15": "epigenomics",
	"fig16": "genome",
	"fig17": "montage",
	"fig18": "seismology",
	"fig19": "soykb",
}

// figure renders one figure. The sweeps come first: they go through
// cli.Run, which owns -shard and -checkpoint. The rest are fixed
// computations that take neither.
func (g *figures) figure(cmd string) error {
	switch cmd {
	case "fig2":
		return g.fig2()
	case "fig4":
		return g.fig4()
	case "fig7":
		return g.family(experiments.Fig7, "fig7 (fork-join family: HEFT loses to CPoP)")
	case "fig8":
		return g.family(experiments.Fig8, "fig8 (wide-fork family: CPoP loses to HEFT)")
	case "appspecific":
		return g.appSpecific(g.Workflow)
	case "all":
		for _, c := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} {
			if err := g.figure(c); err != nil {
				return err
			}
		}
		return nil
	}
	if wf, ok := appendixWorkflows[cmd]; ok {
		return g.appSpecific(wf)
	}
	if err := cli.Refuse(g.fs, "by "+cmd+": only the sweeps fig2, fig4, fig7, fig8 and appspecific shard", "shard"); err != nil {
		return err
	}
	switch cmd {
	case "fig1":
		return g.fig1()
	case "fig3":
		return fig3()
	case "fig5", "fig6":
		return caseStudy(cmd)
	case "fig9":
		return g.fig9()
	}
	return fmt.Errorf("unknown figure %q", cmd)
}

func mustSched(name string) scheduler.Scheduler {
	s, err := scheduler.New(name)
	if err != nil {
		panic(err)
	}
	return s
}

func (g *figures) fig1() error {
	inst := datasets.Fig1Instance()
	sch, err := scheduler.Schedule(mustSched("HEFT"), inst)
	if err != nil {
		return err
	}
	fmt.Println("== Fig 1: example problem instance and schedule (HEFT) ==")
	fmt.Print(render.Gantt(inst, sch, 60))
	fmt.Println()
	return g.writeSVG("fig1.svg", render.GanttSVG(inst, sch, render.SVGOptions{Title: "Fig 1: HEFT schedule"}))
}

func (g *figures) fig2() error {
	fmt.Println("== Fig 2: makespan ratios of 15 algorithms on 16 datasets ==")
	res, err := cli.Run(g.Flags, experiments.Fig2, g.SweepParams)
	if res == nil {
		return err
	}
	fmt.Print(render.Grid(
		fmt.Sprintf("max makespan ratio over %d instances/dataset (color-scale cap: > 5.0)", g.N),
		res.Datasets, res.Schedulers, res.MaxGrid()))
	fmt.Println()
	return g.writeSVG("fig2.svg", render.HeatmapSVG("Fig 2: benchmarking",
		res.Datasets, res.Schedulers, res.MaxGrid()))
}

func fig3() error {
	fmt.Println("== Fig 3: HEFT vs CPoP on slightly modified networks ==")
	heft, cpop := mustSched("HEFT"), mustSched("CPoP")
	for _, mod := range []bool{false, true} {
		inst := datasets.Fig3Instance(mod)
		label := "original"
		if mod {
			label = "modified"
		}
		for _, s := range []scheduler.Scheduler{heft, cpop} {
			sch, err := scheduler.Schedule(s, inst)
			if err != nil {
				return err
			}
			fmt.Printf("-- %s network, %s --\n%s", label, s.Name(), render.Gantt(inst, sch, 60))
		}
	}
	fmt.Println()
	return nil
}

func (g *figures) fig4() error {
	fmt.Println("== Fig 4: pairwise PISA heatmap (15 x 15) ==")
	res, err := cli.Run(g.Flags, experiments.Fig4, g.SweepParams)
	if res == nil {
		return err
	}
	rows := append([][]float64{res.Worst}, res.Ratios...)
	rowLabels := append([]string{"Worst"}, res.Schedulers...)
	fmt.Print(render.Grid(
		fmt.Sprintf("cell (row i, col j) = worst-case ratio of scheduler j vs base i (%d restarts x %d iters)",
			g.Restarts, g.Iters),
		rowLabels, res.Schedulers, rows))
	fmt.Println()
	return g.writeSVG("fig4.svg", render.HeatmapSVG("Fig 4: pairwise PISA",
		rowLabels, res.Schedulers, rows))
}

func caseStudy(cmd string) error {
	var inst *graph.Instance
	if cmd == "fig5" {
		inst = datasets.Fig5Instance()
		fmt.Println("== Fig 5: instance where HEFT performs ~1.55x worse than CPoP ==")
	} else {
		inst = datasets.Fig6Instance()
		fmt.Println("== Fig 6: instance where CPoP performs ~2.83x worse than HEFT ==")
	}
	heft, cpop := mustSched("HEFT"), mustSched("CPoP")
	sh, err := scheduler.Schedule(heft, inst)
	if err != nil {
		return err
	}
	sc, err := scheduler.Schedule(cpop, inst)
	if err != nil {
		return err
	}
	fmt.Printf("-- HEFT --\n%s-- CPoP --\n%s", render.Gantt(inst, sh, 60), render.Gantt(inst, sc, 60))
	fmt.Printf("HEFT/CPoP = %.3f   CPoP/HEFT = %.3f\n\n",
		sh.Makespan()/sc.Makespan(), sc.Makespan()/sh.Makespan())
	return nil
}

// family renders the Fig 7/8 makespan histograms of sweep d.
func (g *figures) family(d experiments.SweepDef[*experiments.FamilyResult], title string) error {
	fmt.Println("== " + title + " ==")
	res, err := cli.Run(g.Flags, d, g.SweepParams)
	if res == nil {
		return err
	}
	for _, s := range res.Schedulers {
		fmt.Print(render.Histogram(s, res.Makespans[s], 10))
	}
	fmt.Println()
	return nil
}

func (g *figures) fig9() error {
	fmt.Println("== Fig 9: srasearch and blast workflow structures ==")
	r := rng.New(g.Seed)
	for _, wf := range []string{"srasearch", "blast"} {
		g, err := datasets.WorkflowRecipe(wf, r.Split())
		if err != nil {
			return err
		}
		fmt.Printf("-- %s: %d tasks, %d dependencies --\n", wf, g.NumTasks(), g.NumDeps())
		order, err := g.TopoOrder()
		if err != nil {
			return err
		}
		for _, t := range order {
			if len(g.Succ[t]) == 0 {
				fmt.Printf("  %s (sink)\n", g.Tasks[t].Name)
				continue
			}
			fmt.Printf("  %s ->", g.Tasks[t].Name)
			for _, d := range g.Succ[t] {
				fmt.Printf(" %s", g.Tasks[d.To].Name)
			}
			fmt.Println()
		}
	}
	fmt.Println()
	return nil
}

func (g *figures) appSpecific(workflow string) error {
	ccrs := experiments.CCRLevels
	if g.CCR > 0 {
		ccrs = []float64{g.CCR}
	}
	if g.Checkpoint != "" && len(ccrs) > 1 {
		// A multi-CCR run reuses one store path across blocks: a naive
		// re-run after an interruption would start at the first CCR level
		// and trip over the interrupted block's fingerprint. Require the
		// block to be pinned so resume always works on the first try.
		return fmt.Errorf("appspecific -checkpoint needs a single block: pin one CCR level with -ccr")
	}
	for _, ccr := range ccrs {
		// One store per (workflow, CCR) block: the fingerprint pins the
		// block, and the store is removed once the block completes so the
		// next CCR level starts fresh at the same path.
		p := g.SweepParams
		p.Workflow, p.CCR = workflow, ccr
		res, err := cli.Run(g.Flags, experiments.AppSpecific, p)
		if err != nil {
			return err
		}
		if res == nil {
			continue // a shard: its store is the output
		}
		rows := append([][]float64{}, res.Ratios...)
		rows = append(rows, res.Benchmark)
		rowLabels := append([]string{}, res.Schedulers...)
		rowLabels = append(rowLabels, "Benchmarking")
		fmt.Printf("== %s (CCR = %.1f): application-specific benchmarking + PISA ==\n", workflow, ccr)
		fmt.Print(render.Grid("", rowLabels, res.Schedulers, rows))
		fmt.Println()
	}
	return nil
}
