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
// full reproduction.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"saga/internal/core"
	"saga/internal/datasets"
	"saga/internal/experiments"
	"saga/internal/graph"
	"saga/internal/render"
	"saga/internal/rng"
	"saga/internal/runner"
	"saga/internal/scheduler"
	"saga/internal/schedulers"
	"saga/internal/serialize"
)

// sweepDefaults supplies the flag defaults shared with cmd/saga
// worker/merge (experiments.DefaultSweepParams), so bare-flag runs of
// either CLI address the same sweep fingerprint.
var sweepDefaults = experiments.DefaultSweepParams()

var (
	flagN        = flag.Int("n", sweepDefaults.N, "instances per dataset / family samples")
	flagSeed     = flag.Uint64("seed", sweepDefaults.Seed, "root random seed")
	flagIters    = flag.Int("iters", sweepDefaults.Iters, "PISA iterations per restart (paper: 1000)")
	flagRestarts = flag.Int("restarts", sweepDefaults.Restarts, "PISA restarts per pair (paper: 5)")
	flagWorkflow = flag.String("workflow", sweepDefaults.Workflow, "workflow for the appspecific command")
	flagCCR      = flag.Float64("ccr", sweepDefaults.CCR, "single CCR for appspecific (0 = all five levels)")
	flagWorkers  = flag.Int("workers", 0, "parallel workers for the experiment sweeps (0 = GOMAXPROCS, 1 = sequential)")
	flagSVGDir   = flag.String("svgdir", "", "also write SVG renderings of grids and Gantt charts here")
	flagProgress = flag.Bool("progress", false, "report sweep progress on stderr")
	flagCkpt     = flag.String("checkpoint", "", "checkpoint file for fig4, fig7, fig8 and appspecific (resume an interrupted sweep, or render a store written by `saga merge` or `saga coordinate`; for appspecific pin one block with -ccr)")
	flagShard    = flag.String("shard", "", "run only shard I/C (e.g. 2/8) of a checkpointed sweep; cells stay in the -checkpoint store for `saga merge`")
	flagChainW   = flag.Int("chain-workers", 0, "parallel workers inside each annealing cell (0 or 1 = sequential; results and fingerprints identical at any count)")
)

// sweepParams mirrors the flag values into the sweep identity shared
// with `saga worker` and `saga merge` (internal/experiments.NewSweep):
// a worker shard and a local run of the same flags address one store.
func sweepParams(workflow string, ccr float64) experiments.SweepParams {
	return experiments.SweepParams{
		N:            *flagN,
		Iters:        *flagIters,
		Restarts:     *flagRestarts,
		Seed:         *flagSeed,
		Workflow:     workflow,
		CCR:          ccr,
		ChainWorkers: *flagChainW,
	}
}

// shardSpec parses -shard; the zero value runs the whole sweep. A shard
// without a store would compute cells and drop them, so -checkpoint is
// required.
func shardSpec() (runner.ShardSpec, error) {
	if *flagShard == "" {
		return runner.ShardSpec{}, nil
	}
	if *flagCkpt == "" {
		return runner.ShardSpec{}, fmt.Errorf("-shard requires -checkpoint: the store is the shard's output")
	}
	return runner.ParseShard(*flagShard)
}

// checkpoint binds the -checkpoint store (nil when the flag is unset) to
// the given sweep fingerprint and wires it into ro. The fingerprint must
// cover every input that shapes cell indices and contents, so resuming a
// different sweep fails loudly instead of mixing stale cells in.
func checkpoint(ro *runner.Options, fingerprint string) *serialize.Checkpoint {
	if *flagCkpt == "" {
		return nil
	}
	ckpt := serialize.NewCheckpoint(*flagCkpt)
	ckpt.SetFingerprint(fingerprint)
	ro.Checkpoint = ckpt
	return ckpt
}

// finishStore ends a sweep's use of the -checkpoint store
// (serialize.Checkpoint.Finish) and reports whether the run was a shard:
// a sharded result is partial by construction, its real output is the
// store, and the caller skips the rendering. A failed cleanup after a
// complete run is only worth a warning — the computed result must still
// be rendered.
func finishStore(label string, shard runner.ShardSpec, ckpt *serialize.Checkpoint) (sharded bool, err error) {
	if ckpt == nil {
		return false, nil
	}
	kept, err := ckpt.Finish(shard.Enabled())
	switch {
	case shard.Enabled():
		if err == nil {
			fmt.Printf("%s: shard %s complete; cells stored in %s — combine with `saga merge -driver %s`, then re-run with `-checkpoint <merged>` (flags before the figure name) to render\n",
				label, shard, *flagCkpt, label)
		}
		return true, err
	case err != nil:
		fmt.Fprintf(os.Stderr, "figures: %s: checkpoint cleanup: %v\n", label, err)
	case kept:
		fmt.Fprintf(os.Stderr, "figures: %s: store %s already held every cell; keeping it\n", label, *flagCkpt)
	}
	return false, nil
}

// runnerOptions assembles the worker pool configuration shared by every
// parallel sweep: the -workers bound and, with -progress, the shared
// stderr reporter (completion, cells/sec throughput, wall-clock ETA).
func runnerOptions(label string) runner.Options {
	opts := runner.Options{Workers: *flagWorkers}
	if *flagProgress {
		opts.Progress = runner.ProgressPrinter(os.Stderr, label)
	}
	return opts
}

// writeSVG writes an SVG artifact when -svgdir is set.
func writeSVG(name, content string) error {
	if *flagSVGDir == "" {
		return nil
	}
	if err := os.MkdirAll(*flagSVGDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(*flagSVGDir, name), []byte(content), 0o644)
}

func main() {
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: figures [flags] <fig1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10...fig19|appspecific|all>")
		os.Exit(2)
	}
	for _, cmd := range flag.Args() {
		if err := run(cmd); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", cmd, err)
			os.Exit(1)
		}
	}
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

// shardable marks the sweeps that support -shard: exactly the
// checkpointable ones, since shards hand their cells over through the
// store.
var shardable = map[string]bool{"fig4": true, "fig7": true, "fig8": true, "appspecific": true}

func run(cmd string) error {
	if *flagShard != "" && !shardable[cmd] {
		if _, ok := appendixWorkflows[cmd]; !ok {
			return fmt.Errorf("-shard applies to checkpointable sweeps only (fig4, fig7, fig8, appspecific)")
		}
	}
	switch cmd {
	case "fig1":
		return fig1()
	case "fig2":
		return fig2()
	case "fig3":
		return fig3()
	case "fig4":
		return fig4()
	case "fig5", "fig6":
		return caseStudy(cmd)
	case "fig7":
		return family("fig7", "fig7 (fork-join family: HEFT loses to CPoP)", datasets.Fig7Instance)
	case "fig8":
		return family("fig8", "fig8 (wide-fork family: CPoP loses to HEFT)", datasets.Fig8Instance)
	case "fig9":
		return fig9()
	case "appspecific":
		return appSpecific(*flagWorkflow)
	case "all":
		for _, c := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} {
			if err := run(c); err != nil {
				return err
			}
		}
		return nil
	}
	if wf, ok := appendixWorkflows[cmd]; ok {
		return appSpecific(wf)
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

func fig1() error {
	inst := datasets.Fig1Instance()
	sch, err := mustSched("HEFT").Schedule(inst)
	if err != nil {
		return err
	}
	fmt.Println("== Fig 1: example problem instance and schedule (HEFT) ==")
	fmt.Print(render.Gantt(inst, sch, 60))
	fmt.Println()
	return writeSVG("fig1.svg", render.GanttSVG(inst, sch, render.SVGOptions{Title: "Fig 1: HEFT schedule"}))
}

func fig2() error {
	fmt.Println("== Fig 2: makespan ratios of 15 algorithms on 16 datasets ==")
	res, err := experiments.BenchmarkingRun(datasets.TableII, schedulers.Experimental(), *flagN, *flagSeed, runnerOptions("fig2"))
	if err != nil {
		return err
	}
	fmt.Print(render.Grid(
		fmt.Sprintf("max makespan ratio over %d instances/dataset (color-scale cap: > 5.0)", *flagN),
		res.Datasets, res.Schedulers, res.MaxGrid()))
	fmt.Println()
	return writeSVG("fig2.svg", render.HeatmapSVG("Fig 2: benchmarking",
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
			sch, err := s.Schedule(inst)
			if err != nil {
				return err
			}
			fmt.Printf("-- %s network, %s --\n%s", label, s.Name(), render.Gantt(inst, sch, 60))
		}
	}
	fmt.Println()
	return nil
}

func fig4() error {
	fmt.Println("== Fig 4: pairwise PISA heatmap (15 x 15) ==")
	sw, err := experiments.NewSweep("fig4", sweepParams("", 0))
	if err != nil {
		return err
	}
	opts := experiments.PairwiseOptions{Anneal: anneal()}
	ro := runnerOptions("fig4")
	if ro.Shard, err = shardSpec(); err != nil {
		return err
	}
	ckpt := checkpoint(&ro, sw.Fingerprint)
	res, err := experiments.PairwisePISARun(schedulers.Experimental(), opts, ro)
	if err != nil {
		return err
	}
	if sharded, err := finishStore("fig4", ro.Shard, ckpt); sharded || err != nil {
		return err
	}
	rows := append([][]float64{res.Worst}, res.Ratios...)
	rowLabels := append([]string{"Worst"}, res.Schedulers...)
	fmt.Print(render.Grid(
		fmt.Sprintf("cell (row i, col j) = worst-case ratio of scheduler j vs base i (%d restarts x %d iters)",
			*flagRestarts, *flagIters),
		rowLabels, res.Schedulers, rows))
	fmt.Println()
	return writeSVG("fig4.svg", render.HeatmapSVG("Fig 4: pairwise PISA",
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
	sh, err := heft.Schedule(inst)
	if err != nil {
		return err
	}
	sc, err := cpop.Schedule(inst)
	if err != nil {
		return err
	}
	fmt.Printf("-- HEFT --\n%s-- CPoP --\n%s", render.Gantt(inst, sh, 60), render.Gantt(inst, sc, 60))
	fmt.Printf("HEFT/CPoP = %.3f   CPoP/HEFT = %.3f\n\n",
		sh.Makespan()/sc.Makespan(), sc.Makespan()/sh.Makespan())
	return nil
}

func family(label, title string, gen func(*rng.RNG) *graph.Instance) error {
	fmt.Println("== " + title + " ==")
	sw, err := experiments.NewSweep(label, sweepParams("", 0))
	if err != nil {
		return err
	}
	scheds := []scheduler.Scheduler{mustSched("CPoP"), mustSched("HEFT")}
	ro := runnerOptions("family")
	if ro.Shard, err = shardSpec(); err != nil {
		return err
	}
	ckpt := checkpoint(&ro, sw.Fingerprint)
	res, err := experiments.FamilyRun(gen, scheds, *flagN, *flagSeed, ro)
	if err != nil {
		return err
	}
	if sharded, err := finishStore(label, ro.Shard, ckpt); sharded || err != nil {
		return err
	}
	for _, name := range res.Schedulers {
		fmt.Print(render.Histogram(name, res.Makespans[name], 10))
	}
	fmt.Println()
	return nil
}

func fig9() error {
	fmt.Println("== Fig 9: srasearch and blast workflow structures ==")
	r := rng.New(*flagSeed)
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

func appSpecific(workflow string) error {
	ccrs := experiments.CCRLevels
	if *flagCCR > 0 {
		ccrs = []float64{*flagCCR}
	}
	if *flagCkpt != "" && len(ccrs) > 1 {
		// A multi-CCR run reuses one store path across blocks: a naive
		// re-run after an interruption would start at the first CCR level
		// and trip over the interrupted block's fingerprint. Require the
		// block to be pinned so resume always works on the first try.
		return fmt.Errorf("appspecific -checkpoint needs a single block: pin one CCR level with -ccr")
	}
	scheds := schedulers.AppSpecific()
	for _, ccr := range ccrs {
		// One store per (workflow, CCR) block: the fingerprint pins the
		// block, and the store is removed once the block completes so the
		// next CCR level starts fresh at the same path.
		sw, err := experiments.NewSweep("appspecific", sweepParams(workflow, ccr))
		if err != nil {
			return err
		}
		ro := runnerOptions("appspecific")
		if ro.Shard, err = shardSpec(); err != nil {
			return err
		}
		ckpt := checkpoint(&ro, sw.Fingerprint)
		res, err := experiments.AppSpecificRun(scheds, experiments.AppSpecificOptions{
			Workflow:           workflow,
			CCR:                ccr,
			BenchmarkInstances: *flagN,
			Anneal:             anneal(),
		}, ro)
		if err != nil {
			return err
		}
		if sharded, err := finishStore("appspecific", ro.Shard, ckpt); err != nil {
			return err
		} else if sharded {
			continue
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

// anneal delegates to the shared sweep identity so the annealing budget
// can never drift between a local run and a `saga worker` shard.
func anneal() core.Options {
	return sweepParams("", 0).Anneal()
}
