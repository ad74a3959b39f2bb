// Command saga is the CLI for the SAGA/PISA reproduction: list
// algorithms and datasets, generate problem instances, run a scheduler on
// an instance, run PISA for a scheduler pair, and run or merge shards of
// a distributed sweep.
//
// Usage:
//
//	saga list                                  # Table I roster
//	saga datasets                              # Table II roster
//	saga generate -dataset chains -out i.json  # draw an instance
//	saga schedule -scheduler HEFT -in i.json   # schedule it
//	saga pisa -target HEFT -base CPoP          # adversarial search
//	saga worker -driver fig4 -shard 2/8 -checkpoint s2.ckpt   # one shard
//	saga merge  -driver fig4 -out merged.ckpt s0.ckpt s1.ckpt # combine
//	saga coordinate -driver fig4 -checkpoint store.ckpt       # lease cells out
//	saga worker -coordinator http://host:port                 # compute leases
//	saga serve                                                # scheduling daemon
//	saga worker -coordinator http://daemon/hub -persist       # its fleet
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"saga/internal/cli"
	"saga/internal/coord"
	"saga/internal/core"
	"saga/internal/datasets"
	"saga/internal/experiments"
	"saga/internal/httpx"
	"saga/internal/render"
	"saga/internal/rng"
	"saga/internal/scheduler"
	"saga/internal/serialize"
	"saga/internal/serve"
	"saga/internal/sim"
	"saga/internal/wfc"
)

// commands maps each subcommand to its implementation.
var commands = map[string]func(args []string) error{
	"list":       list,
	"datasets":   listDatasets,
	"generate":   generate,
	"schedule":   scheduleCmd,
	"pisa":       pisaCmd,
	"portfolio":  portfolioCmd,
	"robustness": robustnessCmd,
	"convert":    convertCmd,
	"simulate":   simulateCmd,
	"benchmark":  benchmarkCmd,
	"describe":   describeCmd,
	"serve":      serveCmd,
	"worker":     workerCmd,
	"coordinate": coordinateCmd,
	"merge":      cli.Merge,
}

func main() {
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if err := commands[cmd](os.Args[2:]); err != nil {
		fmt.Fprintf(os.Stderr, "saga: %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: saga <command> [flags]

commands:
  list       list the implemented scheduling algorithms (Table I)
  datasets   list the available dataset generators (Table II)
  generate   -dataset <name> [-seed N] [-out file.json]
  schedule   -scheduler <name> -in file.json [-gantt] [-server URL]
  serve      [-addr host:port] [-max-concurrent N] [-queue-timeout D] [-cache N] [-workers N] [-drain-timeout D]
             [-degrade-window D] [-token T] [-verbose]   (fleet: saga worker -coordinator http://host:port/hub -persist)
  pisa       -target <name> -base <name> [-method sa|ga] [-iters N] [-restarts N] [-seed N] [-workers N] [-out file.json]
  portfolio  -k N [-schedulers a,b,c] [-iters N] [-restarts N] [-seed N] [-workers N] [-server URL]
  robustness -scheduler <name> -in file.json [-sigma F] [-n N] [-seed N] [-workers N] [-checkpoint file] [-shard I/C] [-server URL]
  convert    -from-wfc wf.json [-link F] [-ccr F] -out inst.json   (wfformat -> instance)
             -from-instance inst.json -out wf.json                 (instance -> wfformat)
  simulate   -scheduler <name> -in file.json [-contention]
  benchmark  [-datasets a,b] [-schedulers x,y] [-n N] [-seed N]
  describe   -dataset <name> [-n N] [-seed N]
  worker     -driver fig2|fig4|fig7|fig8|appspecific|robustness|pairwise -shard I/C -checkpoint file [-n N] [-seed N]
             [-iters N] [-restarts N] [-workflow w] [-ccr F] [-scheduler s] [-sigma F] [-in file.json] [-schedulers a,b]
             [-workers N] [-chain-workers N] [-progress]
             or: -coordinator http://host:port [-name id] [-workers N] [-persist] [-token T] [-progress]
  coordinate -driver <name> -checkpoint store.ckpt [-addr host:port] [-lease N] [-lease-ttl D]
             [-retries N] [-retry-backoff D] [-shuffle-seed N] [-token T] [-verbose] [sweep flags as for worker]
             or: -watch http://host:port [-interval D] [-token T]   (live progress line; a daemon's hub is http://host:port/hub)
  merge      -driver <name> -out merged.ckpt [sweep flags as for worker] shard1.ckpt shard2.ckpt ...`)
}

func list([]string) error {
	fmt.Println("schedulers (Table I):")
	for _, n := range scheduler.Names() {
		s, err := scheduler.New(n)
		if err != nil {
			return err
		}
		req := scheduler.RequirementsOf(s)
		suffix := ""
		if req.HomogeneousNodes && req.HomogeneousLinks {
			suffix = " (designed for homogeneous nodes and links)"
		} else if req.HomogeneousNodes {
			suffix = " (designed for homogeneous nodes)"
		} else if req.HomogeneousLinks {
			suffix = " (designed for homogeneous links)"
		}
		fmt.Printf("  %s%s\n", n, suffix)
	}
	return nil
}

func listDatasets([]string) error {
	fmt.Println("datasets (Table II):")
	for _, n := range datasets.Names() {
		fmt.Printf("  %s\n", n)
	}
	return nil
}

func generate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	name := fs.String("dataset", "chains", "dataset generator name")
	out := fs.String("out", "", "output file (default: stdout)")
	f := cli.Defaults()
	f.Register(fs, "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := datasets.New(*name)
	if err != nil {
		return err
	}
	inst := g(rng.New(f.Seed))
	data, err := serialize.MarshalInstance(inst)
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Println(string(data))
		return nil
	}
	return os.WriteFile(*out, data, 0o644)
}

// scheduleCmd schedules an instance, in process or — with -server — on
// a daemon, whose answer is byte-identical; the output is the same.
func scheduleCmd(args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	gantt := fs.Bool("gantt", true, "render an ASCII Gantt chart")
	f := cli.Defaults()
	f.Register(fs, "scheduler", "in", "server", "token")
	if err := fs.Parse(args); err != nil {
		return err
	}
	name, inst, sch, err := f.Schedule(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("%s makespan: %.6f\n", name, sch.Makespan())
	if *gantt {
		fmt.Print(render.Gantt(inst, sch, 72))
	}
	return nil
}

// serveCmd runs the scheduling daemon (internal/serve): schedule,
// portfolio and robustness requests over HTTP with per-request scratch
// leasing, instance caching, bounded admission and /metrics. The daemon
// is also the coordinator hub of its own fleet: `saga worker
// -coordinator <daemon>/hub -persist` processes attach under /hub/ and
// compute portfolio and robustness sweeps while they are there. SIGINT
// or SIGTERM drains in-flight requests (new ones are refused
// immediately) and exits cleanly.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "address to serve on (port 0 picks a free port, printed at startup)")
	maxConc := fs.Int("max-concurrent", 0, "requests computed concurrently (0 = GOMAXPROCS)")
	queueTimeout := fs.Duration("queue-timeout", 2*time.Second, "how long a request may wait for a slot before 503")
	cacheEntries := fs.Int("cache", 64, "instance cache entries (content-hash keyed, LRU)")
	workers := fs.Int("workers", 1, "runner workers inside one portfolio/robustness request (results identical at any count)")
	drain := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight requests")
	degradeWindow := fs.Duration("degrade-window", 3*time.Second, "how long the fleet under /hub may stay silent before portfolio/robustness sweeps run locally (also its lease lifetime)")
	verbose := fs.Bool("verbose", false, "log every request on stderr")
	f := cli.Defaults()
	f.Register(fs, "token")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := serve.Options{
		MaxConcurrent: *maxConc,
		QueueTimeout:  *queueTimeout,
		CacheEntries:  *cacheEntries,
		Workers:       *workers,
		DegradeWindow: *degradeWindow,
		Token:         f.Token,
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	srv := serve.New(opts)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serve: listening on http://%s\n", ln.Addr())
	fmt.Printf("serve: POST /v1/schedule /v1/portfolio /v1/robustness; GET /metrics /healthz\n")
	fmt.Printf("serve: fleet: `saga worker -coordinator http://%s/hub -persist` (sweeps run locally after %s of fleet silence)\n",
		ln.Addr(), *degradeWindow)
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case got := <-sig:
		fmt.Printf("serve: %v: draining in-flight requests (up to %s)\n", got, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		fmt.Println("serve: drained, exiting")
		return nil
	}
}

func pisaCmd(args []string) error {
	fs := flag.NewFlagSet("pisa", flag.ExitOnError)
	targetName := fs.String("target", "HEFT", "scheduler to find bad instances for")
	baseName := fs.String("base", "CPoP", "baseline scheduler")
	method := fs.String("method", "sa", "search meta-heuristic: sa (simulated annealing) or ga (genetic)")
	// Parallelism inside one search, not a sweep's runner pool.
	workers := fs.Int("workers", 0, "parallel workers inside the search (restart chains / offspring evaluation; 0 or 1 = sequential, results identical at any count)")
	out := fs.String("out", "", "write the worst-case instance JSON here")
	trace := fs.String("trace", "", "write the annealing trace CSV here (sa only)")
	f := cli.Defaults()
	f.Iters, f.Restarts = 1000, 5
	f.Register(fs, "iters", "restarts", "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	target, err := scheduler.New(*targetName)
	if err != nil {
		return err
	}
	base, err := scheduler.New(*baseName)
	if err != nil {
		return err
	}
	var res *core.Result
	switch *method {
	case "sa":
		opts := f.Anneal()
		opts.Workers = *workers
		opts.RecordTrace = *trace != ""
		res, err = experiments.SinglePISA(target, base, opts)
	case "ga":
		if err := cli.Refuse(fs, "with -method ga: it evolves one population of -iters/10 generations", "restarts", "trace"); err != nil {
			return err
		}
		opts := core.DefaultGAOptions()
		opts.Generations = max(f.Iters/10, 1)
		opts.Seed = f.Seed
		opts.Workers = *workers
		opts.InitialInstance = datasets.InitialPISAInstance
		res, err = core.RunGA(target, base, opts)
	default:
		return fmt.Errorf("unknown method %q (want sa or ga)", *method)
	}
	if err != nil {
		return err
	}
	fmt.Printf("worst-case makespan ratio of %s against %s: %s (per-restart: %v)\n",
		target.Name(), base.Name(), render.Cell(res.BestRatio), res.RestartRatios)
	st, err := scheduler.Schedule(target, res.Best)
	if err != nil {
		return err
	}
	sb, err := scheduler.Schedule(base, res.Best)
	if err != nil {
		return err
	}
	fmt.Printf("-- %s --\n%s-- %s --\n%s", target.Name(), render.Gantt(res.Best, st, 72),
		base.Name(), render.Gantt(res.Best, sb, 72))
	if *trace != "" && len(res.Trace) > 0 {
		if err := os.WriteFile(*trace, []byte(res.TraceCSV()), 0o644); err != nil {
			return err
		}
	}
	if *out != "" {
		return serialize.SaveInstance(*out, res.Best)
	}
	return nil
}

// portfolioCmd prints the pairwise PISA grid over a roster and its best
// k-scheduler portfolio, computed in process or on a -server daemon.
func portfolioCmd(args []string) error {
	fs := flag.NewFlagSet("portfolio", flag.ExitOnError)
	k := fs.Int("k", 3, "portfolio size")
	f := cli.Defaults()
	f.Restarts = 2
	f.Register(fs, "schedulers", "iters", "restarts", "seed", "workers", "server", "token")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := f.Portfolio(context.Background(), *k)
	if err != nil {
		return err
	}
	fmt.Println("pairwise PISA grid (row = base, column = analyzed):")
	fmt.Print(render.Grid("", resp.Schedulers, resp.Schedulers, resp.Ratios))
	fmt.Printf("\nbest %d-scheduler portfolio: %s (combined worst-case ratio %s)\n",
		*k, strings.Join(resp.Members, " + "), render.Cell(resp.WorstRatio))
	return nil
}

// robustnessCmd prints a scheduler's makespan under cost jitter, static
// replay against re-planning. In process it is the "robustness" sweep,
// so -checkpoint resumes it and -shard splits it for `saga merge`.
func robustnessCmd(args []string) error {
	fs := flag.NewFlagSet("robustness", flag.ExitOnError)
	f := cli.Defaults()
	f.N = 100
	f.Register(fs, "scheduler", "in", "sigma", "n", "seed", "workers", "checkpoint", "shard", "server", "token")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := f.Robustness(context.Background())
	if resp == nil {
		return err
	}
	fmt.Printf("%s nominal makespan: %.4f\n", resp.Scheduler, resp.Nominal)
	fmt.Printf("static replay under +/-%.0f%% cost jitter (n=%d): mean %.4f  p50 %.4f  max %.4f\n",
		f.Sigma*100, resp.Static.N, resp.Static.Mean, resp.Static.Median, resp.Static.Max)
	fmt.Printf("adaptive re-planning:                              mean %.4f  p50 %.4f  max %.4f\n",
		resp.Adaptive.Mean, resp.Adaptive.Median, resp.Adaptive.Max)
	return nil
}

// convertCmd bridges the WfCommons wfformat and this repository's
// instance JSON: real execution-trace workflows can be imported and
// scheduled, and generated or adversarial instances exported for other
// WfCommons-compatible tools.
func convertCmd(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	fromWfc := fs.String("from-wfc", "", "wfformat JSON to import")
	fromInst := fs.String("from-instance", "", "instance JSON to export as wfformat")
	link := fs.Float64("link", 1, "uniform link strength for imported networks")
	ccr := fs.Float64("ccr", 0, "if > 0, set homogeneous links for this average CCR instead")
	nodes := fs.Int("nodes", 4, "network size when the wfformat file lists no machines")
	out := fs.String("out", "", "output file (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var data []byte
	switch {
	case *fromWfc != "" && *fromInst != "":
		return errors.New("-from-wfc and -from-instance are mutually exclusive")
	case *fromWfc != "":
		raw, err := os.ReadFile(*fromWfc)
		if err != nil {
			return err
		}
		inst, err := datasets.InstanceFromWfC(raw, *link, *ccr, *nodes)
		if err != nil {
			return err
		}
		data, err = serialize.MarshalInstance(inst)
		if err != nil {
			return err
		}
	case *fromInst != "":
		inst, err := serialize.LoadInstance(*fromInst)
		if err != nil {
			return err
		}
		doc := wfc.FromTaskGraph("saga-export", inst.Graph)
		data, err = doc.Marshal()
		if err != nil {
			return err
		}
	default:
		return errors.New("one of -from-wfc or -from-instance is required")
	}
	if *out == "" {
		fmt.Println(string(data))
		return nil
	}
	return os.WriteFile(*out, data, 0o644)
}

// simulateCmd schedules an instance and replays the result on the
// discrete-event platform simulator, reporting utilization, message
// counts, and — with -contention — how much single-channel links stretch
// the makespan beyond the contention-free model every scheduler assumes.
func simulateCmd(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	contention := fs.Bool("contention", false, "serialize concurrent transfers per link")
	f := cli.Defaults()
	f.Register(fs, "scheduler", "in")
	if err := fs.Parse(args); err != nil {
		return err
	}
	name, inst, sch, err := f.Schedule(context.Background())
	if err != nil {
		return err
	}
	strict, err := sim.Execute(inst, sch, sim.Strict)
	if err != nil {
		return fmt.Errorf("schedule not executable: %w", err)
	}
	fmt.Printf("%s planned makespan:   %.6f\n", name, sch.Makespan())
	fmt.Printf("simulated makespan:     %.6f (%d remote transfers, utilization %.1f%%)\n",
		strict.Makespan, strict.Messages, 100*strict.Utilization())
	if *contention {
		cont, err := sim.Execute(inst, sch, sim.Contended)
		if err != nil {
			return err
		}
		fmt.Printf("with link contention:   %.6f (%.2fx the contention-free plan)\n",
			cont.Makespan, cont.Makespan/sch.Makespan())
	}
	return nil
}

// benchmarkCmd runs a Fig 2-style benchmarking sweep over chosen
// datasets and schedulers.
func benchmarkCmd(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	ds := fs.String("datasets", "chains,in_trees,out_trees", "comma-separated dataset names")
	f := cli.Defaults()
	f.Register(fs, "schedulers", "n", "seed", "workers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var scheds []scheduler.Scheduler
	for _, nm := range f.Schedulers {
		s, err := scheduler.New(nm)
		if err != nil {
			return err
		}
		scheds = append(scheds, s)
	}
	dsNames := strings.Split(*ds, ",")
	for i := range dsNames {
		dsNames[i] = strings.TrimSpace(dsNames[i])
	}
	res, err := experiments.BenchmarkingRun(dsNames, scheds, f.N, f.Seed, f.Options("benchmark"))
	if err != nil {
		return err
	}
	fmt.Print(render.Grid(
		fmt.Sprintf("max makespan ratio against the best scheduler (%d instances/dataset)", f.N),
		res.Datasets, res.Schedulers, res.MaxGrid()))
	return nil
}

// workerCmd computes cells of a distributed sweep, in either of two
// modes. Static sharding (-shard I/C): only the cells with index ≡ I
// (mod C) are computed — with their global position-derived seeds — and
// persisted to this shard's checkpoint store; the store is the shard's
// output, to be combined by `saga merge`. Dynamic leasing
// (-coordinator URL): the worker fetches the sweep identity from a hub
// (`saga coordinate`, or a daemon's /hub), leases cell ranges, and
// delivers results over HTTP — the hub owns the one store, reassigns
// the cells of dead workers, and no merge step is needed. Either way,
// killing and restarting a worker loses nothing.
func workerCmd(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	driver := fs.String("driver", "", "sweep to shard: "+strings.Join(experiments.SweepNames, ", ")+" (required unless -coordinator)")
	coordURL := fs.String("coordinator", "", "coordinator URL (e.g. http://host:port); lease cells dynamically instead of -driver/-shard/-checkpoint")
	name := fs.String("name", "", "worker name in coordinator logs (default host-pid)")
	persist := fs.Bool("persist", false, "fleet mode: stay alive across sweeps and coordinator restarts (requires -coordinator; stop with SIGINT/SIGTERM)")
	f := cli.Defaults()
	f.Register(fs, cli.SweepFlags...)
	f.Register(fs, "workers", "progress", "checkpoint", "shard", "token")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordURL != "" {
		if err := cli.Refuse(fs, "with -coordinator: the hub serves the sweep and owns the store",
			slices.Concat(cli.SweepFlags, []string{"driver", "shard", "checkpoint"})...); err != nil {
			return err
		}
		nm := *name
		if nm == "" {
			host, err := os.Hostname()
			if err != nil {
				host = "worker"
			}
			nm = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		wo := coord.WorkerOptions{
			Name:    nm,
			Workers: f.Workers,
			Persist: *persist,
			Client:  httpx.NewBearerClient(nil, f.Token),
		}
		if f.Progress {
			wo.Progress = os.Stderr
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := coord.RunWorker(ctx, *coordURL, wo); err != nil {
			if errors.Is(err, context.Canceled) {
				// Signal-driven shutdown: any lease in flight was dropped
				// cleanly (the coordinator reaps it) — a clean fleet drain.
				fmt.Printf("worker: %s stopped by signal\n", nm)
				return nil
			}
			if errors.Is(err, coord.ErrCoordinatorGone) {
				// The coordinator finished (or crashed; its store resumes).
				// Either way this worker has nothing left to do — every
				// delivered cell is already durable on the coordinator side.
				fmt.Printf("worker: %s stopping: %v\n", nm, err)
				return nil
			}
			return err
		}
		fmt.Printf("worker: %s done (sweep finished at %s)\n", nm, *coordURL)
		return nil
	}
	if *persist {
		return errors.New("-persist requires -coordinator (static shards end with their shard)")
	}
	if *driver == "" || f.Shard == "" || f.Checkpoint == "" {
		return errors.New("-driver, -shard and -checkpoint are required (or -coordinator for dynamic leasing)")
	}
	p, err := f.Params()
	if err != nil {
		return err
	}
	// A shard's output is its sealed store — written even when the shard
	// owns zero cells (more shards than cells), so the merge sees every
	// shard it expects.
	sw, err := experiments.NewSweep(*driver, p)
	if err != nil {
		return err
	}
	return f.RunSweep(sw)
}

// coordinateCmd serves a coordinator hub (internal/coord) with one sweep
// mounted on a checkpoint file: its cells are handed out in ranges,
// renewed by heartbeat, reclaimed from workers that die or hang, retried
// with backoff when they fail, and committed as they complete. The file
// is the format `saga worker -shard` and cmd/figures -checkpoint use, so
// when the sweep finishes the process exits and the figure renders
// straight from it; restarting a crashed coordinator on the same store
// resumes, and committed cells are never recomputed. With -watch it
// serves nothing and renders another hub's progress — this command's or
// a `saga serve` daemon's (<daemon>/hub).
func coordinateCmd(args []string) error {
	fs := flag.NewFlagSet("coordinate", flag.ExitOnError)
	driver := fs.String("driver", "", "sweep to coordinate: "+strings.Join(experiments.SweepNames, ", ")+" (required unless -watch)")
	addr := fs.String("addr", "127.0.0.1:0", "address to serve the protocol on (0 picks a free port, printed at startup)")
	watch := fs.String("watch", "", "hub URL: render GET /status as a live progress line instead of serving")
	interval := fs.Duration("interval", time.Second, "poll cadence for -watch")
	leaseSize := fs.Int("lease", 8, "cells per lease")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "lease lifetime without a heartbeat before its cells are reclaimed")
	retries := fs.Int("retries", 3, "attempts per cell before it is poisoned (reported, excluded, sweep continues)")
	retryBackoff := fs.Duration("retry-backoff", time.Second, "delay before retrying a failed cell (doubles per attempt)")
	shuffleSeed := fs.Uint64("shuffle-seed", 0, "lease cells in seed-derived random order (0 = index order; results identical either way)")
	verbose := fs.Bool("verbose", false, "log every protocol event on stderr")
	f := cli.Defaults()
	f.Register(fs, cli.SweepFlags...)
	f.Register(fs, "checkpoint", "token")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *watch != "" {
		if err := cli.Refuse(fs, "with -watch: it serves nothing and only reads another hub's status",
			slices.Concat(cli.SweepFlags, []string{"driver", "checkpoint", "addr", "lease", "lease-ttl",
				"retries", "retry-backoff", "shuffle-seed", "verbose"})...); err != nil {
			return err
		}
		if *interval <= 0 { // a zero sleep would poll the hub back to back
			return fmt.Errorf("-interval %v must be positive", *interval)
		}
		return watchStatus(strings.TrimRight(*watch, "/"), f.Token, *interval)
	}
	if *driver == "" || f.Checkpoint == "" {
		return errors.New("-driver and -checkpoint are required (or -watch)")
	}
	hopts := coord.HubOptions{
		Token: f.Token,
		Sweep: coord.Options{
			LeaseSize:    *leaseSize,
			LeaseTTL:     *leaseTTL,
			MaxRetries:   *retries,
			RetryBackoff: *retryBackoff,
			ShuffleSeed:  *shuffleSeed,
		},
	}
	if *verbose {
		hopts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	h := coord.NewHub(hopts)
	p, err := f.Params()
	if err != nil {
		return err
	}
	ckpt := serialize.NewCheckpoint(f.Checkpoint)
	sweep, err := h.Mount(*driver, p, ckpt)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	st := sweep.Status()
	fmt.Printf("coordinate: %s (%d cells, %d already in store) on http://%s\n", *driver, st.Cells, st.Committed, ln.Addr())
	fmt.Printf("coordinate: workers: `saga worker -coordinator http://%s`\n", ln.Addr())
	srv := &http.Server{Handler: h}
	defer srv.Close()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	finished := make(chan error, 1)
	go func() { finished <- sweep.Wait(nil) }()
	select {
	case err := <-served:
		return err
	case err := <-finished:
		if err != nil {
			return err
		}
		// Cells were committed in completion order; sealing leaves the
		// canonical store any other finished run of the sweep seals to.
		if err := ckpt.Seal(); err != nil {
			return err
		}
		fmt.Printf("coordinate: sweep %s complete; %d cells in %s (render with `figures -checkpoint %s %s`, same sweep flags)\n",
			*driver, st.Cells, f.Checkpoint, f.Checkpoint, *driver)
		return nil
	}
}

// watchStatus renders a hub's GET /status — the merged view across
// every mounted sweep — as one live progress line, refreshed in place
// until every sweep is done.
func watchStatus(base, token string, interval time.Duration) error {
	client := httpx.NewBearerClient(nil, token)
	for {
		var st coord.Status
		if err := httpx.GetJSON(context.Background(), client, base+"/status", &st); err != nil {
			fmt.Println()
			return err
		}
		// \r + erase-to-EOL keeps the line stable as counts shrink.
		fmt.Printf("\r\x1b[Kwatch: %d/%d cells  %d leased  %d retrying  %d poisoned  |  %d sweeps  %d workers",
			st.Committed, st.Cells, st.Leased, st.RetryWait, st.Poisoned, st.Sweeps, st.ActiveWorkers)
		if st.Done {
			fmt.Println()
			return nil
		}
		time.Sleep(interval)
	}
}

// describeCmd prints structural statistics of a dataset sample.
func describeCmd(args []string) error {
	fs := flag.NewFlagSet("describe", flag.ExitOnError)
	name := fs.String("dataset", "chains", "dataset generator name")
	f := cli.Defaults()
	f.N = 50
	f.Register(fs, "n", "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	instances, err := datasets.Dataset(*name, f.N, f.Seed)
	if err != nil {
		return err
	}
	fmt.Print(datasets.Describe(*name, instances).String())
	return nil
}
