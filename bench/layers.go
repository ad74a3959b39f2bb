package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"saga/internal/core"
	"saga/internal/datasets"
	"saga/internal/experiments"
	"saga/internal/graph"
	"saga/internal/httpx"
	"saga/internal/rng"
	"saga/internal/runner"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	"saga/internal/schedulers"
	"saga/internal/serialize"
	"saga/internal/serve"
	"saga/internal/wfc"
)

// The traced pass: every per-layer metric of BENCHMARK.json except the
// cmd.* ones, measured by calling each layer's public functions
// in-process inside spans, plus short child runs for what only a real
// daemon or coordinator can say. README.md lists what each metric is
// and which end-to-end metric it should move.

// layerPass accumulates the metrics of one traced pass.
type layerPass struct {
	e         *env
	tr        *tracer
	seed      uint64
	m         map[string]float64
	attempted int
	failed    int
	failures  []string

	mid  *graph.Instance // 64 tasks / 6 nodes, the BENCH_hotpath shape
	wf   *graph.Instance // one montage draw
	k1   *graph.Instance // scale_layered_1k
	big  *graph.Instance // scale_layered_10k
	body []byte          // POST /v1/schedule body for wf under HEFT

	small *experiments.Sweep // the sweep whose store sweepLayers leaves in layer-fig4.ckpt
}

// layerAbort carries an error out of a measurement closure; run turns
// it back into an error.
type layerAbort struct{ err error }

func (l *layerPass) must(err error) {
	if err != nil {
		panic(layerAbort{err})
	}
}

// check counts one correctness check of the pass.
func (l *layerPass) check(ok bool, reason string) {
	l.attempted++
	if !ok {
		l.failed++
		if len(l.failures) < 5 {
			l.failures = append(l.failures, reason)
		}
	}
}

// n scales a repetition count down for the smoke pass, never below 3.
func (l *layerPass) n(full int) int {
	if n := full / l.e.sz.layerScale; n > 3 {
		return n
	}
	return 3
}

// times runs fn n times, each in its own span and trace, and returns the
// median duration in seconds.
func (l *layerPass) times(name string, n int, fn func()) float64 {
	d := make([]float64, n)
	for i := range d {
		l.tr.trace = fmt.Sprintf("%s#%d", name, i)
		d[i] = l.tr.do(name, fn).Seconds()
	}
	return median(d)
}

// timesAfter is times with an untimed prep step before every call.
func (l *layerPass) timesAfter(name string, n int, prep, fn func()) float64 {
	d := make([]float64, n)
	for i := range d {
		prep()
		l.tr.trace = fmt.Sprintf("%s#%d", name, i)
		d[i] = l.tr.do(name, fn).Seconds()
	}
	return median(d)
}

// batch runs fn, which performs count operations too short to time one
// by one, in a single span and returns seconds per operation.
func (l *layerPass) batch(name string, count int, fn func()) float64 {
	l.tr.trace = name
	return l.tr.do(name, fn).Seconds() / float64(count)
}

// midInstance rebuilds the fixed instance behind BENCH_hotpath.json
// (bench_test.go, hotPathInstance): an 8 x 8 layered DAG on six nodes.
func midInstance() *graph.Instance {
	r := rng.New(0x407)
	g := graph.NewTaskGraph()
	const layers, width = 8, 8
	for l := 0; l < layers; l++ {
		for w := 0; w < width; w++ {
			t := g.AddTask(fmt.Sprintf("t%d_%d", l, w), r.ClippedGaussian(1, 1.0/3, 0.2, 2))
			if l > 0 {
				preds := 1 + r.Intn(3)
				for k := 0; k < preds; k++ {
					p := (l-1)*width + r.Intn(width)
					if !g.HasDep(p, t) {
						g.MustAddDep(p, t, r.ClippedGaussian(1, 1.0/3, 0.2, 2))
					}
				}
			}
		}
	}
	net := graph.NewNetwork(6)
	for v := range net.Speeds {
		net.Speeds[v] = r.ClippedGaussian(1, 1.0/3, 0.2, 2)
		for u := v + 1; u < net.NumNodes(); u++ {
			net.SetLink(v, u, r.ClippedGaussian(1, 1.0/3, 0.2, 2))
		}
	}
	return graph.NewInstance(g, net)
}

func (l *layerPass) one(dataset string) *graph.Instance {
	insts, err := datasets.Dataset(dataset, 1, l.seed)
	l.must(err)
	return insts[0]
}

func mustSched(name string) scheduler.Scheduler {
	s, err := scheduler.New(name)
	if err != nil {
		panic(layerAbort{err})
	}
	return s
}

// runLayerPass measures every layer and returns the pass. serveHot and
// serveCold run the two serve workloads for a short window; coord runs
// one coordinated sweep beside its local twin.
func runLayerPass(e *env, seed uint64) (l *layerPass, err error) {
	l = &layerPass{e: e, tr: newTracer(), seed: seed, m: map[string]float64{}}
	defer func() {
		if r := recover(); r != nil {
			abort, ok := r.(layerAbort)
			if !ok {
				panic(r)
			}
			err = abort.err
		}
	}()
	l.mid = midInstance()
	l.wf = l.one("montage")
	l.k1 = l.one(e.sz.midDataset)
	l.big = l.one(e.sz.bigDataset)
	raw, err := serialize.MarshalInstance(l.wf)
	l.must(err)
	l.body, err = json.Marshal(scheduleRequest{Scheduler: "HEFT", Instance: raw})
	l.must(err)

	l.datasetsLayer()
	l.graphLayer()
	l.schedulerLayers()
	l.coreLayer()
	l.sweepLayers()
	l.serializeLayers()
	l.serveLayers()
	l.overhead()
	l.children()
	return l, e.ctx.Err()
}

func (l *layerPass) datasetsLayer() {
	seed := l.seed
	l.m["datasets.generate_10k_ms"] = 1e3 * l.times("datasets.generate_10k", 3, func() {
		seed++
		_, err := datasets.Dataset(l.e.sz.bigDataset, 1, seed)
		l.must(err)
	})
	l.m["datasets.generate_workflow_us"] = 1e6 * l.times("datasets.generate_workflow", l.n(50), func() {
		seed++
		_, err := datasets.Dataset("montage", 1, seed)
		l.must(err)
	})
	r := rng.New(l.seed)
	const draws = 10000
	l.m["datasets.initial_pisa_ns"] = 1e9 * l.batch("datasets.initial_pisa", draws, func() {
		for i := 0; i < draws; i++ {
			datasets.InitialPISAInstance(r)
		}
	})
}

func (l *layerPass) graphLayer() {
	var tb graph.Tables
	l.m["graph.tables_build_mid_us"] = 1e6 * l.times("graph.tables_build_mid", l.n(50), func() { tb.Build(l.mid) })
	l.m["graph.tables_build_10k_ms"] = 1e3 * l.times("graph.tables_build_10k", 5, func() { tb.Build(l.big) })
	l.m["graph.tables_bytes_10k"] = float64(tb.MemoryBytes())
	l.m["graph.link_exceptions_10k"] = float64(tb.LinkExceptions())
	l.m["graph.validate_10k_ms"] = 1e3 * l.times("graph.validate_10k", 5, func() { l.must(l.big.Validate()) })

	// The six incremental maintenance operations the annealer applies,
	// each after the matching in-place mutation of the instance. The lazy
	// refill of the per-edge average table is not triggered.
	inst := l.mid.Clone()
	tb.Build(inst)
	g, net := inst.Graph, inst.Net
	u, v := g.DepAt(0)
	rounds := l.n(2000)
	l.m["graph.tables_patch_ns"] = 1e9 * l.batch("graph.tables_patch", 6*rounds, func() {
		for i := 0; i < rounds; i++ {
			w := 0.5 + float64(i%8)/10
			node := i % net.NumNodes()
			net.Speeds[node] = w
			tb.UpdateNodeSpeed(node)
			other := (node + 1) % net.NumNodes()
			net.SetLink(node, other, w)
			tb.UpdateLinkSpeed(node, other)
			task := i % g.NumTasks()
			g.Tasks[task].Cost = w
			tb.UpdateTaskWeight(task)
			g.SetDepCost(u, v, w)
			tb.UpdateDepWeight(u, v)
			g.RemoveDep(u, v)
			tb.RemoveDep(u, v)
			g.MustAddDep(u, v, w)
			tb.AddDep(u, v)
		}
	})
}

func (l *layerPass) schedulerLayers() {
	scr := scheduler.NewScratch()
	var out schedule.Schedule
	heft, cpop := mustSched("HEFT"), mustSched("CPoP")

	// Prepare rebuilds the tables and so bumps their generation, which is
	// what makes the next rank and order calls recompute and not answer
	// from the scratch's memo.
	l.m["scheduler.upward_rank_mid_us"] = 1e6 * l.timesAfter("scheduler.upward_rank_mid", l.n(50),
		func() { scr.Prepare(l.mid) }, func() { scr.UpwardRank(l.mid) })

	const names = 10000
	l.m["scheduler.registry_new_ns"] = 1e9 * l.batch("scheduler.registry_new", names, func() {
		for i := 0; i < names; i++ {
			_, err := scheduler.New("HEFT")
			l.must(err)
		}
	})

	request := func(suffix string, inst *graph.Instance, n int) (rank, topo, place float64) {
		var r, t, p []float64
		for i := 0; i < n; i++ {
			l.tr.trace = fmt.Sprintf("schedule_request_%s#%d", suffix, i)
			l.tr.do("scheduler.request_"+suffix, func() {
				rank, topo, place := l.heftSpans(scr, inst, &out)
				r, t, p = append(r, rank), append(t, topo), append(p, place)
			})
		}
		return median(r), median(t), median(p)
	}
	_, _, place1k := request("1k", l.k1, l.n(20))
	rank10k, topo10k, place10k := request("10k", l.big, 5)
	l.m["scheduler.upward_rank_10k_ms"] = 1e3 * rank10k
	l.m["scheduler.topo_order_10k_ms"] = 1e3 * topo10k
	l.m["schedule.place_ns_per_task_1k"] = 1e9 * place1k / float64(l.k1.Graph.NumTasks())
	l.m["schedule.place_ns_per_task_10k"] = 1e9 * place10k / float64(l.big.Graph.NumTasks())
	l.check(schedule.Validate(l.big, &out) == nil, "HEFT 10k schedule fails schedule.Validate")
	l.m["schedule.validate_10k_ms"] = 1e3 * l.times("schedule.validate_10k", 5, func() { l.must(schedule.Validate(l.big, &out)) })

	// The rank memo seen from outside: CPoP right after HEFT on the same
	// table generation, over CPoP on freshly built tables.
	runCPoP := func() { l.must(scheduler.ScheduleInto(cpop, l.wf, scr, &out)) }
	alone := l.timesAfter("schedulers.CPoP_alone", l.n(30), func() { scr.Prepare(l.wf) }, runCPoP)
	second := l.timesAfter("schedulers.CPoP_after_HEFT", l.n(30), func() {
		scr.Prepare(l.wf)
		l.must(scheduler.ScheduleInto(heft, l.wf, scr, &out))
	}, runCPoP)
	l.m["scheduler.pair_second_call_share"] = second / alone

	// Every experiment scheduler warm on the mid instance, as
	// BenchmarkScheduleHotPath runs them, and the allocation count that
	// `make bench-smoke` gates at zero.
	maxAllocs := 0.0
	for _, name := range schedulers.ExperimentalNames {
		s := mustSched(name)
		call := func() { l.must(scheduler.ScheduleInto(s, l.mid, scr, &out)) }
		call()
		l.m["schedulers."+name+"_mid_us"] = 1e6 * l.times("schedulers."+name+"_mid", l.n(50), call)
		l.check(schedule.Validate(l.mid, &out) == nil, name+" mid schedule fails schedule.Validate")
		if a := testing.AllocsPerRun(l.n(20), call); a > maxAllocs {
			maxAllocs = a
		}
	}
	l.m["schedulers.allocs_per_op_max"] = maxAllocs
	// At the parent of this benchmark the schedulers that place without
	// insertion (FCP, FLB, MCT, OLB, FastestNode) overlap tasks on
	// scale-tier instances: Builder.NodeAvailable goes stale behind a
	// zero-cost task. Invalid 10k schedules are therefore reported as a
	// count for a later fix to bring to zero, not as failed operations.
	invalid := 0
	for _, name := range l.e.sz.scaleSchedulers {
		s := mustSched(name)
		call := func() { l.must(scheduler.ScheduleInto(s, l.big, scr, &out)) }
		call()
		l.m["schedulers."+name+"_10k_ms"] = 1e3 * l.times("schedulers."+name+"_10k", 5, call)
		if schedule.Validate(l.big, &out) != nil {
			invalid++
		}
	}
	l.m["schedule.invalid_10k_count"] = float64(invalid)
}

// heftSpans is one HEFT scheduling of inst taken apart into four spans:
// build, rank, order, place. After the explicit rank and order calls
// HEFT's own are memo hits, so the last span is the placement loop (the
// insertion scan) alone. It returns the last three durations in seconds.
func (l *layerPass) heftSpans(scr *scheduler.Scratch, inst *graph.Instance, out *schedule.Schedule) (rank, topo, place float64) {
	heft := mustSched("HEFT")
	l.tr.do("graph.tables_build", func() { scr.Prepare(inst) })
	var ranks []float64
	rank = l.tr.do("scheduler.upward_rank", func() { ranks = scr.UpwardRank(inst) }).Seconds()
	topo = l.tr.do("scheduler.topo_order", func() { scr.TopoOrderByPriority(inst.Graph, ranks) }).Seconds()
	place = l.tr.do("schedule.place", func() { l.must(scheduler.ScheduleInto(heft, inst, scr, out)) }).Seconds()
	return rank, topo, place
}

// medianOf is the median duration, in seconds, of every span recorded
// under name so far.
func (l *layerPass) medianOf(name string) float64 {
	var d []float64
	for _, s := range l.tr.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start)/1e9)
		}
	}
	return median(d)
}

func (l *layerPass) coreLayer() {
	heft, cpop := mustSched("HEFT"), mustSched("CPoP")
	type shape struct {
		name     string
		iters    int
		restarts int
		initial  func(*rng.RNG) *graph.Instance
		perturb  core.PerturbOptions
	}
	// The workflow shape perturbs weights only, inside the ranges the
	// instance came with, as the Section VII driver does.
	bounds := func(v []float64) [2]float64 {
		r := [2]float64{v[0], v[0]}
		for _, x := range v {
			r[0], r[1] = math.Min(r[0], x), math.Max(r[1], x)
		}
		return r
	}
	var taskCosts, depCosts []float64
	for t, task := range l.wf.Graph.Tasks {
		taskCosts = append(taskCosts, task.Cost)
		for _, d := range l.wf.Graph.Succ[t] {
			depCosts = append(depCosts, d.Cost)
		}
	}
	shapes := []shape{
		{"chain", l.e.sz.fig4Iters, l.e.sz.fig4Restarts, datasets.InitialPISAInstance, core.PerturbOptions{}},
		{"wide64", l.n(300), 2, func(*rng.RNG) *graph.Instance { return l.mid.Clone() }, core.PerturbOptions{}},
		{"workflow", l.n(300), 2, func(*rng.RNG) *graph.Instance { return l.wf.Clone() }, core.PerturbOptions{
			Step: 0.1, TaskCost: bounds(taskCosts), DepCost: bounds(depCosts), Speed: bounds(l.wf.Net.Speeds),
			FixLinks: true, FixStructure: true, KeepPinnedWeights: true}},
	}
	run := func(sh shape, workers int) (*core.Result, float64) {
		opts := core.DefaultOptions()
		opts.MaxIters, opts.Restarts, opts.Seed = sh.iters, sh.restarts, l.seed
		opts.InitialInstance, opts.Perturb, opts.Workers = sh.initial, sh.perturb, workers
		var res *core.Result
		l.tr.trace = "core.run_" + sh.name
		d := l.tr.do("core.run_"+sh.name, func() {
			var err error
			res, err = core.Run(heft, cpop, opts)
			l.must(err)
		})
		return res, d.Seconds()
	}
	for _, sh := range shapes {
		run(sh, 1) // warm the code paths; each Run still builds its own scratch
		if sh.name != "chain" {
			_, wall := run(sh, 1)
			l.m["core.iter_ns_"+sh.name] = 1e9 * wall / float64(sh.iters*sh.restarts)
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, _ := run(sh, 1)
		runtime.ReadMemStats(&after)
		l.m["core.evals_per_run"] = float64(res.Evaluations)
		l.m["core.allocs_per_run"] = float64(after.Mallocs - before.Mallocs)
		// A chain run is milliseconds, so its numbers are medians over five
		// runs at each width.
		var seq, par []float64
		for i := 0; i < 5; i++ {
			_, w := run(sh, 1)
			seq = append(seq, w)
			pr, w := run(sh, l.e.cores)
			par = append(par, w)
			l.check(pr.BestRatio == res.BestRatio, "core.Run: every core found a different best ratio than Workers=1")
		}
		l.m["core.iter_ns_chain"] = 1e9 * median(seq) / float64(sh.iters*sh.restarts)
		l.m["core.run_parallel_speedup"] = median(seq) / median(par)
	}
}

// sweepLayers: the drivers in-process (what a CLI invocation costs
// beyond them is process start and rendering), the worker pool's
// per-cell cost, and a resume from a complete store.
func (l *layerPass) sweepLayers() {
	e, sz := l.e, l.e.sz
	// The same child seeds the CLI workloads start from, so that these
	// walls compare with their first operations.
	fig4 := experiments.SweepParams{Iters: sz.fig4Iters, Restarts: sz.fig4Restarts, Seed: 1 + l.seed%uint64(sz.fig4Pool)}
	runSweep := func(span, name string, p experiments.SweepParams, ro runner.Options) float64 {
		sw, err := experiments.NewSweep(name, p)
		l.must(err)
		l.tr.trace = span
		return l.tr.do(span, func() { l.must(sw.Run(ro)) }).Seconds()
	}
	// A small fig4 sweep first: it fills a real 210-cell store for the
	// resume and serialize measurements, and the timed sweeps after it do
	// not pay for a cold heap.
	sw, err := experiments.NewSweep("fig4", experiments.SweepParams{Iters: 20, Restarts: 1, Seed: l.seed})
	l.must(err)
	l.small = sw
	store := serialize.NewCheckpoint(e.tmpPath("layer-fig4.ckpt"))
	store.SetFingerprint(sw.Fingerprint)
	l.must(sw.Run(runner.Options{Workers: e.W, Checkpoint: store}))

	inproc := runSweep("experiments.fig4_inproc", "fig4", fig4, runner.Options{Workers: e.cores})
	seq := runSweep("experiments.fig4_seq", "fig4", fig4, runner.Options{Workers: 1})
	l.m["experiments.fig4_inproc_s"] = inproc
	l.m["experiments.fig4_seq_s"] = seq
	l.m["experiments.fig4_parallel_eff"] = seq / (float64(e.cores) * inproc)
	l.m["experiments.appspecific_inproc_s"] = runSweep("experiments.appspecific_inproc", "appspecific",
		experiments.SweepParams{N: sz.appN, Iters: sz.appIters, Restarts: sz.appRestarts, Seed: 1 + l.seed%uint64(sz.appPool),
			Workflow: sz.appWorkflows[0], CCR: 1}, runner.Options{Workers: e.W})

	scheds := make([]scheduler.Scheduler, len(sz.scaleSchedulers))
	for i, name := range sz.scaleSchedulers {
		scheds[i] = mustSched(name)
	}
	l.tr.trace = "experiments.benchmarking_inproc"
	l.m["experiments.benchmarking_inproc_s"] = l.tr.do("experiments.benchmarking_inproc", func() {
		_, err := experiments.BenchmarkingRun(sz.scaleDatasets, scheds, sz.scaleN, 1+l.seed%uint64(sz.scalePool), runner.Options{Workers: e.W})
		l.must(err)
	}).Seconds()

	const cells = 10000
	l.m["runner.map_ns_per_cell"] = 1e9 * l.batch("runner.map", cells, func() {
		_, err := runner.Map(cells, runner.Options{Workers: e.W}, func(i int) (int, error) { return i, nil })
		l.must(err)
	})

	l.m["runner.resume_ms_210"] = 1e3 * l.times("runner.resume_210", l.n(10), func() {
		resumed := serialize.NewCheckpoint(e.tmpPath("layer-fig4.ckpt"))
		resumed.SetFingerprint(sw.Fingerprint)
		l.must(sw.Run(runner.Options{Workers: e.W, Checkpoint: resumed}))
	})
}

func (l *layerPass) serializeLayers() {
	e := l.e
	scr := scheduler.NewScratch()
	var wfSched, bigSched schedule.Schedule
	heft := mustSched("HEFT")
	l.must(scheduler.ScheduleInto(heft, l.wf, scr, &wfSched))
	l.must(scheduler.ScheduleInto(heft, l.big, scr, &bigSched))
	wfRaw, err := serialize.MarshalInstance(l.wf)
	l.must(err)
	bigRaw, err := serialize.MarshalInstance(l.big)
	l.must(err)

	l.m["serialize.unmarshal_instance_mid_us"] = 1e6 * l.times("serialize.unmarshal_instance_mid", l.n(50), func() {
		_, err := serialize.UnmarshalInstance(wfRaw)
		l.must(err)
	})
	l.m["serialize.unmarshal_instance_10k_ms"] = 1e3 * l.times("serialize.unmarshal_instance_10k", 3, func() {
		_, err := serialize.UnmarshalInstance(bigRaw)
		l.must(err)
	})
	l.m["serialize.marshal_schedule_mid_us"] = 1e6 * l.times("serialize.marshal_schedule_mid", l.n(50), func() {
		_, err := serialize.MarshalSchedule(&wfSched)
		l.must(err)
	})
	l.m["serialize.marshal_schedule_10k_ms"] = 1e3 * l.times("serialize.marshal_schedule_10k", 5, func() {
		_, err := serialize.MarshalSchedule(&bigSched)
		l.must(err)
	})

	// The cells of the store sweepLayers left behind are real fig4 cells
	// (a ratio and a serialized instance each).
	const fp = "bench layer pass"
	src := serialize.NewCheckpoint(e.tmpPath("layer-fig4.ckpt"))
	src.SetFingerprint(l.small.Fingerprint)
	cells, err := src.Load()
	l.must(err)
	l.check(len(cells) == l.small.Cells, fmt.Sprintf("fig4 store holds %d cells, want %d", len(cells), l.small.Cells))
	n := len(cells)

	// Checkpoint.Store rewrites the whole file on every cell, which is how
	// the coordinator commits.
	jsonStore := e.tmpPath("layer-store.json")
	l.m["serialize.checkpoint_store_us_per_cell"] = 1e6 * l.batch("serialize.checkpoint_store", n, func() {
		ck := serialize.NewCheckpoint(jsonStore)
		ck.SetFingerprint(fp)
		for i := 0; i < n; i++ {
			l.must(ck.Store(i, cells[i]))
		}
		l.must(ck.Flush())
	})
	l.m["serialize.stream_append_us_per_cell"] = 1e6 * l.batch("serialize.stream_append", n, func() {
		w, err := serialize.NewStoreWriter(e.tmpPath("layer-stream.gz"), fp)
		l.must(err)
		for i := 0; i < n; i++ {
			l.must(w.Append(i, cells[i]))
		}
		l.must(w.Close())
	})
	l.m["serialize.checkpoint_load_210_ms"] = 1e3 * l.times("serialize.checkpoint_load", l.n(10), func() {
		ck := serialize.NewCheckpoint(jsonStore)
		ck.SetFingerprint(fp)
		got, err := ck.Load()
		l.must(err)
		if len(got) != n {
			l.must(fmt.Errorf("checkpoint load: %d cells, want %d", len(got), n))
		}
	})
	shards := make([]string, 3)
	for s := range shards {
		shards[s] = e.tmpPath(fmt.Sprintf("layer-shard%d.gz", s))
		w, err := serialize.NewStoreWriter(shards[s], fp)
		l.must(err)
		for i := s; i < n; i += len(shards) {
			l.must(w.Append(i, cells[i]))
		}
		l.must(w.Close())
	}
	merged := 0
	l.m["serialize.merge_3shards_ms"] = 1e3 * l.times("serialize.merge_3shards", l.n(10), func() {
		var err error
		merged, err = serialize.MergeCheckpoints(e.tmpPath("layer-merged.gz"), fp, n, shards)
		l.must(err)
	})
	l.check(merged == n, fmt.Sprintf("merge wrote %d cells, want %d", merged, n))

	doc, err := wfc.FromTaskGraph("montage", l.wf.Graph).Marshal()
	l.must(err)
	var parsed *wfc.Instance
	l.m["wfc.parse_us"] = 1e6 * l.times("wfc.parse", l.n(50), func() {
		var err error
		parsed, err = wfc.Parse(doc)
		l.must(err)
	})
	l.m["wfc.to_instance_us"] = 1e6 * l.times("wfc.to_instance", l.n(50), func() {
		g, err := parsed.ToTaskGraph()
		l.must(err)
		l.must(graph.NewInstance(g, graph.NewNetwork(wfcNodes)).Validate())
	})
}

// serveLayers: the daemon's handler without a socket, the same handler
// behind loopback TCP, and a cold request taken apart into the library
// calls it is made of.
func (l *layerPass) serveLayers() {
	post := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(l.body))
	}
	want, err := expected("HEFT", l.wf, scheduler.NewScratch(), &schedule.Schedule{})
	l.must(err)

	var req scheduleRequest
	l.m["httpx.read_json_us"] = 1e6 * l.times("httpx.read_json", l.n(50), func() {
		if !httpx.ReadJSON(httptest.NewRecorder(), post(), &req) {
			l.must(fmt.Errorf("httpx.ReadJSON refused the bench body"))
		}
	})
	var resp scheduleResponse
	l.must(json.Unmarshal(want, &resp))
	l.m["httpx.write_json_us"] = 1e6 * l.times("httpx.write_json", l.n(50), func() {
		httpx.WriteJSON(httptest.NewRecorder(), resp)
	})

	handle := func(name string, srv http.Handler) {
		rec := httptest.NewRecorder()
		rq := post()
		l.tr.do(name, func() { srv.ServeHTTP(rec, rq) })
		l.check(rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), want), name+": response differs from the library's schedule")
	}
	// As many calls as the loopback client below gets through, so both
	// medians come from a warm daemon.
	hotSrv := serve.New(serve.Options{})
	handle("serve.handler_warmup", hotSrv)
	for i := 0; i < l.n(1000); i++ {
		l.tr.trace = fmt.Sprintf("serve.handler_hot#%d", i)
		handle("serve.handler_hot", hotSrv)
	}
	// A fresh daemon per call is the cold path: empty cache, empty
	// scratch pool.
	for i := 0; i < l.n(50); i++ {
		l.tr.trace = fmt.Sprintf("serve.handler_cold#%d", i)
		handle("serve.handler_cold", serve.New(serve.Options{}))
	}
	hot, cold := l.medianOf("serve.handler_hot"), l.medianOf("serve.handler_cold")
	l.m["serve.handler_hot_us"] = 1e6 * hot
	l.m["serve.handler_cold_us"] = 1e6 * cold

	ts := httptest.NewServer(hotSrv)
	st := load(ts.URL, []request{{body: l.body, want: want}}, 1, time.Duration(l.n(300))*time.Millisecond)
	ts.Close()
	l.attempted += st.attempted
	l.failed += st.failed
	sort.Float64s(st.lat)
	loop := quantile(st.lat, 0.5)
	l.m["serve.loopback_hot_us"] = 1e6 * loop
	l.m["serve.transport_share"] = 1 - hot/loop

	// The cold request as library calls, one span each under one root.
	for i := 0; i < l.n(50); i++ {
		l.tr.trace = fmt.Sprintf("serve.pipeline_cold#%d", i)
		l.tr.do("serve.pipeline_cold", func() {
			var rq scheduleRequest
			l.tr.do("httpx.read_json", func() { httpx.ReadJSON(httptest.NewRecorder(), post(), &rq) })
			var inst *graph.Instance
			l.tr.do("serialize.unmarshal_instance", func() {
				var err error
				inst, err = serialize.UnmarshalInstance(rq.Instance)
				l.must(err)
			})
			var out schedule.Schedule
			l.heftSpans(scheduler.NewScratch(), inst, &out)
			var raw []byte
			l.tr.do("serialize.marshal_schedule", func() {
				var err error
				raw, err = serialize.MarshalSchedule(&out)
				l.must(err)
			})
			l.tr.do("httpx.write_json", func() {
				httpx.WriteJSON(httptest.NewRecorder(), scheduleResponse{Scheduler: "HEFT", Makespan: out.Makespan(), Schedule: raw})
			})
		})
	}
	l.m["serve.handler_residual_us"] = 1e6 * (cold - l.medianOf("serve.pipeline_cold"))
}

// overhead runs the cold-request pipeline's scheduling core with the
// tracer recording and not recording; the difference is what a span
// costs.
func (l *layerPass) overhead() {
	heft := mustSched("HEFT")
	scr := scheduler.NewScratch()
	var out schedule.Schedule
	pass := func() float64 {
		start := time.Now()
		for i := 0; i < l.n(2000); i++ {
			l.tr.do("harness.overhead_probe", func() {
				l.tr.do("graph.tables_build", func() { scr.Prepare(l.mid) })
				l.tr.do("schedule.place", func() { l.must(scheduler.ScheduleInto(heft, l.mid, scr, &out)) })
			})
		}
		return time.Since(start).Seconds()
	}
	pass()
	l.tr.on = false
	untraced := pass()
	l.tr.on = true
	l.tr.trace = "harness.overhead"
	traced := pass()
	l.m["harness.trace_overhead_share"] = (traced - untraced) / untraced
	l.m["harness.build_s"] = l.e.buildS
}

// children: the numbers only real processes give. A short run of each
// serve workload for the daemon's own /metrics; one coordinated fig4
// sweep beside the same sweep run locally; `saga list` for start-up.
func (l *layerPass) children() {
	e := l.e
	// Three seconds: the 54 first-time misses of serve_hot are then under
	// one percent of its requests.
	window := 3 * time.Second / time.Duration(e.sz.layerScale)
	hot, err := runServe(e, true, l.seed, window, 1)
	l.must(err)
	cold, err := runServe(e, false, l.seed, window, 1)
	l.must(err)
	for _, r := range []*result{hot, cold} {
		l.attempted += r.attempted
		l.failed += r.failed
		l.failures = append(l.failures, r.failures...)
	}
	l.m["serve.cache_hit_share_hot"] = hot.serve.hitShare
	l.m["serve.cache_hit_share_cold"] = cold.serve.hitShare
	l.m["serve.table_reuse_share_hot"] = hot.serve.tableReuse
	l.m["serve.fresh_scratches"] = hot.serve.freshScratches
	l.m["serve.rejected"] = hot.serve.rejected + cold.serve.rejected
	l.m["serve.server_p50_ms_hot"] = hot.serve.serverP50MS
	l.m["serve.server_p99_ms_hot"] = hot.serve.serverP99MS
	l.m["serve.server_p50_ms_cold"] = cold.serve.serverP50MS
	l.m["harness.client_cpu_share"] = hot.serve.clientCPUShare

	seed := 1 + l.seed%uint64(e.sz.coordPool)
	var rtts []float64
	op := runCoordOp(e, seed, func(url string) {
		// GET /status while the workers compute.
		for i := 0; i < 5; i++ {
			var status map[string]any
			start := time.Now()
			if getJSON(url+"/status", &status) != nil {
				return
			}
			rtts = append(rtts, time.Since(start).Seconds())
			time.Sleep(20 * time.Millisecond)
		}
	})
	l.must(op.err)
	l.check(len(rtts) > 0, "coordinator /status never answered during the sweep")
	if len(rtts) == 0 {
		rtts = []float64{0}
	}
	local := e.run(e.figures, fig4Args(e.sz, coordWorkers(e), seed)...)
	l.must(local.err)
	rendered, err := renderStore(e, op.store, seed)
	l.must(err)
	l.check(bytes.Equal(rendered, local.stdout), "coordinated fig4: rendered store differs from the local run")
	workerCPU := 0.0
	for _, w := range op.workers {
		workerCPU += w.cpu.Seconds()
	}
	l.m["coord.overhead_ratio"] = op.wall.Seconds() / local.wall.Seconds()
	l.m["coord.coordinator_cpu_s"] = op.coord.cpu.Seconds()
	l.m["coord.worker_cpu_s"] = workerCPU
	l.m["coord.cpu_overhead_ratio"] = (op.coord.cpu.Seconds() + workerCPU) / local.cpu.Seconds()
	l.m["coord.startup_ms"] = 1e3 * op.boot.Seconds()
	l.m["coord.status_rtt_ms"] = 1e3 * median(rtts)
	info, err := os.Stat(op.store)
	l.must(err)
	l.m["coord.store_bytes"] = float64(info.Size())

	l.m["cmd.startup_ms"] = 1e3 * l.times("cmd.startup", l.n(20), func() {
		p := e.run(e.saga, "list")
		l.must(p.err)
	})
}
