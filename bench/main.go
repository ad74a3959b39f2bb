// Command bench is the repository's performance ledger: six end-to-end
// workloads that drive the shipped binaries (cmd/saga, cmd/figures) as
// child processes through their CLI and HTTP contracts, and a traced
// pass that times each internal package through its public functions.
// BENCHMARK.json at the repository root declares the workloads and
// metrics; README.md in this directory defines them.
//
//	bash bench/run.sh --workload fig4_paper --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh -seed 1                 # every workload, end to end
//	bash bench/run.sh -seed 1 -trace 1        # every workload, per layer
//	bash bench/run.sh -seed 1 -repeat 2       # two sets, compared
//
// After each workload the last line printed is one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// workload is one entry of the table below: how to run it and the unit
// of work behind its work_per_s.
type workload struct {
	name     string
	workUnit string
	run      func(e *env, seed uint64, window time.Duration) (*result, error)
}

var workloads = []workload{
	{"fig4_paper", "cells", runFig4Paper},
	{"appspecific_pisa", "cells", runAppSpecific},
	{"fig4_coord", "cells", runFig4Coord},
	{"scale_schedule", "task*node*scheduler", runScaleSchedule},
	{"serve_hot", "requests", func(e *env, seed uint64, w time.Duration) (*result, error) {
		return runServe(e, true, seed, w, e.sz.setupReps)
	}},
	{"serve_cold", "requests", func(e *env, seed uint64, w time.Duration) (*result, error) {
		return runServe(e, false, seed, w, e.sz.setupReps)
	}},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's result object: exactly these four keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is one run of one workload: the result line plus what the
// ledger file keeps besides.
type report struct {
	resultLine
	Workload string `json:"workload,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	Samples  int    `json:"samples,omitempty"`
	// HostFactor is the median host-speed factor of the timed stretches
	// (calib.go) and RawOpMS the median wall clock of an operation before
	// normalising: what the end-to-end metrics were computed from.
	HostFactor float64            `json:"host_factor,omitempty"`
	RawOpMS    float64            `json:"raw_op_ms,omitempty"`
	Failures   []string           `json:"failures,omitempty"`
	SelfTimeS  map[string]float64 `json:"self_time_s,omitempty"`
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// finish checks the measured values against the declared metrics: the
// same names, every value finite. Units come from the declaration.
func finish(rep *report, values map[string]float64, decls []metricDecl) error {
	rep.Metrics = make(map[string]metricValue, len(decls))
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("%s: declared metric %s was not measured", rep.Workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is not finite", rep.Workload, d.Name)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := rep.Metrics[name]; !ok {
			return fmt.Errorf("%s: measured metric %s is not declared in BENCHMARK.json", rep.Workload, name)
		}
		if !nameRe.MatchString(name) {
			return fmt.Errorf("%s: bad metric name %q", rep.Workload, name)
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return nil
}

// bench is one invocation: the environment plus the layer pass, which
// is measured once per process and shared by every traced workload.
type bench struct {
	e      *env
	spec   *spec
	out    string
	stdout io.Writer
	layers *layerPass
}

// runWorkload runs one workload once. Untraced, it measures for the
// whole window and reports the end-to-end metrics. Traced, it measures
// the workload for a third of the window to attribute CPU and memory to
// it, and reports those beside the layer pass.
func (b *bench) runWorkload(w workload, seed uint64, window time.Duration, traced bool) (*report, error) {
	rep := &report{Workload: w.name, Seed: seed}
	if !traced {
		r, err := w.run(b.e, seed, window)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rep.Attempted, rep.Failed, rep.Failures, rep.Samples = r.attempted, r.failed, r.failures, len(r.ops)
		if len(r.ops) == 0 {
			return nil, fmt.Errorf("%s: no operation succeeded: %v", w.name, r.failures)
		}
		rep.HostFactor, rep.RawOpMS = median(r.host.factors), median(r.ops)*1e3
		return rep, finish(rep, r.endToEnd(), b.spec.EndToEnd)
	}
	if b.layers == nil {
		l, err := runLayerPass(b.e, seed)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		if err := l.tr.write(filepath.Join(b.out, "trace.json")); err != nil {
			return nil, err
		}
		b.layers = l
	}
	r, err := w.run(b.e, seed, window/3)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	l := b.layers
	values := make(map[string]float64, len(l.m)+3)
	for name, v := range l.m {
		values[name] = v
	}
	values["cmd.cpu_s"] = r.cpu
	values["cmd.peak_rss_mb"] = float64(r.rssKB) / 1024
	values["cmd.op_wall_cv"] = cv(r.ops)
	sorted := append([]float64(nil), r.ops...)
	sort.Float64s(sorted)
	values["cmd.op_tail_ms"] = quantile(sorted, tailQuantile(len(sorted))) * 1e3
	rep.Attempted, rep.Failed = r.attempted+l.attempted, r.failed+l.failed
	rep.Failures = append(append([]string(nil), r.failures...), l.failures...)
	rep.Samples = len(r.ops)
	rep.SelfTimeS = l.tr.selfTimes()
	return rep, finish(rep, values, b.spec.PerLayer)
}

// print writes the human-readable table and then the result line.
func (b *bench) print(w workload, rep *report, window time.Duration, traced bool) error {
	fmt.Fprintf(b.stdout, "== %s  seed=%d  window=%s  trace=%v  W=%d  samples=%d  attempted=%d  failed=%d\n",
		w.name, rep.Seed, window, traced, b.e.W, rep.Samples, rep.Attempted, rep.Failed)
	if !traced {
		fmt.Fprintf(b.stdout, "  host ran %.3f times slower than the calibration reference; median operation before normalising %.6g ms\n",
			rep.HostFactor, rep.RawOpMS)
	}
	decls := b.spec.EndToEnd
	if traced {
		decls = b.spec.PerLayer
	}
	for _, d := range decls {
		unit := d.Unit
		if d.Name == "work_per_s" {
			unit = w.workUnit + "/s"
		}
		fmt.Fprintf(b.stdout, "  %-44s %16.6g  %s\n", d.Name, rep.Metrics[d.Name].Value, unit)
	}
	for _, layer := range sortedKeys(rep.SelfTimeS) {
		fmt.Fprintf(b.stdout, "  self time %-34s %16.6g  s\n", layer, rep.SelfTimeS[layer])
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(b.stdout, "  FAILED: %s\n", f)
	}
	line, err := json.Marshal(rep.resultLine)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(b.stdout, "%s\n", line)
	return err
}

// host is the provenance block of a result file.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	W          int    `json:"w"`
}

func hostInfo(w int) host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown", W: w}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// ledger is the result file: every set of one invocation.
type ledger struct {
	Host       host         `json:"host"`
	Seed       uint64       `json:"seed"`
	RunSeconds int          `json:"run_seconds"`
	Traced     bool         `json:"traced"`
	Sets       [][]*report  `json:"sets"`
	Repeat     []comparison `json:"repeat,omitempty"`
}

// comparison is one end-to-end metric of one workload across the first
// two sets of a -repeat run.
type comparison struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

// compare sets the two sets side by side: the relative difference of
// each end-to-end metric against its bound.
func compare(s *spec, first, second []*report) []comparison {
	var out []comparison
	for i, a := range first {
		for _, d := range s.EndToEnd {
			x, y := a.Metrics[d.Name].Value, second[i].Metrics[d.Name].Value
			rel := math.Abs(y-x) / x
			out = append(out, comparison{a.Workload, d.Name, x, y, rel, d.Bound, rel <= d.Bound})
		}
	}
	return out
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all six)")
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Int("seconds", 0, "measuring window per workload (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	out := fs.String("out", "", "directory for results.json and trace.json (default: .bench_build/out)")
	repeat := fs.Int("repeat", 1, "run the whole set this many times; with 2 or more, compare the first two sets against the bounds")
	smoke := fs.Bool("smoke", false, "toy sizes: exercises every code path, measures nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	var selected []workload
	for _, w := range workloads {
		if *names == "" || strings.Contains(","+*names+",", ","+w.name+",") {
			selected = append(selected, w)
		}
	}
	if n := len(strings.Split(*names, ",")); *names != "" && n != len(selected) {
		return fail(fmt.Errorf("unknown workload in %q", *names))
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	// One run must end within the contract's 180 s; an invocation that
	// runs several gets that much for each.
	e, err := newEnv(root, sz, time.Duration(len(selected)**repeat)*170*time.Second)
	if err != nil {
		return fail(err)
	}
	defer e.close()
	// SIGINT or SIGTERM cancels the context, which kills every child.
	sig := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
			e.cancel()
		case <-done:
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(done)
	}()

	b := &bench{e: e, spec: sp, out: *out, stdout: stdout}
	if b.out == "" {
		b.out = filepath.Join(e.build, "out")
	}
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return fail(err)
	}
	window := time.Duration(*seconds) * time.Second
	led := ledger{Host: hostInfo(e.W), Seed: *seed, RunSeconds: *seconds, Traced: *trace == 1}
	for set := 0; set < *repeat; set++ {
		var reports []*report
		for _, w := range selected {
			rep, err := b.runWorkload(w, *seed, window, *trace == 1)
			if err == nil {
				err = b.print(w, rep, window, *trace == 1)
			}
			if err != nil {
				return fail(err)
			}
			reports = append(reports, rep)
		}
		led.Sets = append(led.Sets, reports)
	}
	code := 0
	for _, set := range led.Sets {
		for _, rep := range set {
			if !rep.Correct {
				code = 1
			}
		}
	}
	if *repeat >= 2 && *trace == 0 {
		led.Repeat = compare(sp, led.Sets[0], led.Sets[1])
		fmt.Fprintf(stderr, "%-18s %-12s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "rel diff", "bound")
		for _, c := range led.Repeat {
			mark := ""
			if !c.Within {
				mark, code = "  BEYOND BOUND", 1
			}
			fmt.Fprintf(stderr, "%-18s %-12s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
				c.Workload, c.Metric, c.First, c.Second, 100*c.RelDiff, 100*c.Bound, mark)
		}
	}
	data, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(filepath.Join(b.out, "results.json"), append(data, '\n'), 0o644); err != nil {
		return fail(err)
	}
	return code
}
