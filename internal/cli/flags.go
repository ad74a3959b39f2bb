// Package cli is the glue between SAGA's two command lines (cmd/saga,
// cmd/figures) and the sweeps they run: one flag set for a sweep's
// identity and run configuration, one checkpoint-store lifecycle, and
// one switch between computing in process and asking a `saga serve`
// daemon. A subcommand registers its flags here, calls one function and
// prints what comes back. Neither CLI keeps a copy of this glue, so a
// `figures` run and a `saga worker` shard launched with the same flags
// always address the same sweep and the same store.
package cli

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"saga/internal/experiments"
	"saga/internal/runner"
	"saga/internal/schedulers"
)

// Flags is one command's sweep identity and run configuration. Register
// binds the flags a command names to these fields; a field whose flag
// is not registered keeps its default, so no command gains a flag it
// does not use.
type Flags struct {
	// SweepParams holds -n -seed -iters -restarts -workflow -ccr
	// -scheduler -sigma -chain-workers -schedulers. InstanceRaw stays
	// empty until Params reads -in.
	experiments.SweepParams

	In         string // -in: instance JSON file
	Workers    int    // -workers: runner pool size
	Progress   bool   // -progress: report on stderr
	Checkpoint string // -checkpoint: the sweep's store
	Shard      string // -shard: I/C, requires -checkpoint
	Server     string // -server: daemon URL; empty computes in process
	Token      string // -token: bearer token for the daemon or hub
}

// SweepFlags names the flags that make up a sweep's identity, as `saga
// worker`, `saga coordinate` and `saga merge` take them.
var SweepFlags = []string{"n", "seed", "iters", "restarts", "workflow", "ccr", "scheduler", "sigma", "in", "chain-workers", "schedulers"}

// Defaults returns the flag defaults every command starts from. A
// command that needs another default (robustness draws 100 jitter
// samples, pisa anneals 1000 iterations) changes the field before
// Register, which shows it in -h. CCR stays 0: an appspecific block is
// chosen explicitly.
func Defaults() *Flags {
	return &Flags{
		SweepParams: experiments.SweepParams{N: 20, Seed: 1, Iters: 250, Restarts: 3,
			Workflow: "srasearch", Scheduler: "HEFT", Sigma: 0.2},
		Token: os.Getenv("SAGA_TOKEN"),
	}
}

// Register binds the named flags on fs to f, each with f's current
// value as its default. It is the only place a sweep, run or daemon
// flag is defined; an unknown name is a programming error and panics.
func (f *Flags) Register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "n":
			fs.IntVar(&f.N, name, f.N, "instances per dataset, family samples or jitter samples")
		case "seed":
			fs.Uint64Var(&f.Seed, name, f.Seed, "root random seed")
		case "iters":
			fs.IntVar(&f.Iters, name, f.Iters, "PISA iterations per restart (paper: 1000)")
		case "restarts":
			fs.IntVar(&f.Restarts, name, f.Restarts, "PISA restarts per pair (paper: 5)")
		case "workflow":
			fs.StringVar(&f.Workflow, name, f.Workflow, "workflow of the appspecific block")
		case "ccr":
			fs.Float64Var(&f.CCR, name, f.CCR, "CCR level of the appspecific block (a sweep needs one > 0; figures runs all five at 0)")
		case "scheduler":
			fs.StringVar(&f.Scheduler, name, f.Scheduler, "scheduler name")
		case "sigma":
			fs.Float64Var(&f.Sigma, name, f.Sigma, "relative cost jitter of the robustness sweep (clipped gaussian sd)")
		case "in":
			fs.StringVar(&f.In, name, f.In, "instance JSON file")
		case "chain-workers":
			fs.IntVar(&f.ChainWorkers, name, f.ChainWorkers, "parallel workers inside each annealing cell (0 or 1 = sequential; results identical at any count)")
		case "schedulers":
			f.Schedulers = slices.Clone(schedulers.AppSpecificNames)
			fs.Var(listFlag{&f.Schedulers}, name, "comma-separated scheduler names")
		case "workers":
			fs.IntVar(&f.Workers, name, f.Workers, "parallel workers (0 = GOMAXPROCS; results identical at any count)")
		case "progress":
			fs.BoolVar(&f.Progress, name, f.Progress, "report sweep progress on stderr")
		case "checkpoint":
			fs.StringVar(&f.Checkpoint, name, f.Checkpoint, "the sweep's checkpoint store: resumed if it exists; one that already holds every cell (from `saga merge` or `saga coordinate`) is only read, and kept")
		case "shard":
			fs.StringVar(&f.Shard, name, f.Shard, "compute only shard I/C (e.g. 2/8) of the sweep into the -checkpoint store, for `saga merge`")
		case "server":
			fs.StringVar(&f.Server, name, f.Server, "daemon URL (e.g. http://host:port): compute on `saga serve` instead of in-process")
		case "token":
			fs.StringVar(&f.Token, name, f.Token, "shared-secret bearer token for daemon/coordinator endpoints (default $SAGA_TOKEN; empty = no auth)")
		default:
			panic("cli: no flag named " + name)
		}
	}
}

// listFlag is a comma-separated list flag; entries are trimmed.
type listFlag struct{ p *[]string }

func (l listFlag) String() string {
	if l.p == nil {
		return ""
	}
	return strings.Join(*l.p, ",")
}

func (l listFlag) Set(s string) error {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	*l.p = parts
	return nil
}

// Params returns the sweep identity the flags name, with the bytes of
// -in when it is set: the robustness sweep is fingerprinted by them.
func (f *Flags) Params() (experiments.SweepParams, error) {
	p := f.SweepParams
	if f.In != "" {
		raw, err := os.ReadFile(f.In)
		if err != nil {
			return p, err
		}
		p.InstanceRaw = raw
	}
	return p, nil
}

// Options returns the runner configuration of -workers and -progress;
// label heads the progress lines.
func (f *Flags) Options(label string) runner.Options {
	ro := runner.Options{Workers: f.Workers}
	if f.Progress {
		ro.Progress = runner.ProgressPrinter(os.Stderr, label)
	}
	return ro
}

// Refuse fails when any of names was set on the command line: the mode
// the caller describes ignores those flags, and a flag dropped without
// a word is a result the user did not ask for. fs.Visit sees only flags
// set explicitly, so defaults never trip it.
func Refuse(fs *flag.FlagSet, mode string, names ...string) error {
	var set []string
	fs.Visit(func(fl *flag.Flag) {
		if slices.Contains(names, fl.Name) {
			set = append(set, "-"+fl.Name)
		}
	})
	if len(set) == 0 {
		return nil
	}
	return fmt.Errorf("%s not used %s", strings.Join(set, ", "), mode)
}
