package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"saga/internal/experiments"
	"saga/internal/graph"
	"saga/internal/runner"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	"saga/internal/serialize"
	"saga/internal/serve"
)

// Run runs sweep d with parameters p under -workers, -progress, -shard
// and -checkpoint, and returns the driver's result. A shard's result
// covers its own cells only and its output is the sealed store, so a
// sharded Run prints where the cells went and returns the zero T.
func Run[T any](f *Flags, d experiments.SweepDef[T], p experiments.SweepParams) (T, error) {
	var res, zero T
	sw, compute, err := d.Bind(p)
	if err != nil {
		return zero, err
	}
	sw.Run = func(ro runner.Options) (err error) {
		res, err = compute(ro)
		return err
	}
	if err := f.RunSweep(sw); err != nil || f.Shard != "" {
		return zero, err
	}
	return res, nil
}

// RunSweep runs sw under the same flags as Run, for a sweep named at
// run time (`saga worker -shard`). This is the one store lifecycle. With
// -checkpoint the store is bound to the sweep's fingerprint, so resuming
// a different sweep fails loudly, and finished by
// serialize.Checkpoint.Finish: a shard seals its store, a complete run
// removes it, and a store that already held every cell is kept.
func (f *Flags) RunSweep(sw *experiments.Sweep) error {
	label := sw.Name
	var shard runner.ShardSpec
	if f.Shard != "" {
		if f.Checkpoint == "" {
			return errors.New("-shard requires -checkpoint: the store is the shard's output")
		}
		var err error
		if shard, err = runner.ParseShard(f.Shard); err != nil {
			return err
		}
		label += " " + shard.String()
	}
	ro := f.Options(label)
	if shard.Enabled() {
		ro.Include = shard.Owns
	}
	var ckpt *serialize.Checkpoint
	if f.Checkpoint != "" {
		ckpt = serialize.NewCheckpoint(f.Checkpoint)
		ckpt.SetFingerprint(sw.Fingerprint)
		ro.Checkpoint = ckpt
	}
	if err := sw.Run(ro); err != nil || ckpt == nil {
		return err
	}
	switch kept, err := ckpt.Finish(shard.Enabled()); {
	case shard.Enabled():
		if err == nil {
			fmt.Printf("%s: shard %s complete; cells stored in %s (combine with `saga merge -driver %s`)\n",
				sw.Name, shard, f.Checkpoint, sw.Name)
		}
		return err
	case err != nil:
		// The result is computed and must still be printed.
		fmt.Fprintf(os.Stderr, "%s: checkpoint cleanup: %v\n", sw.Name, err)
	case kept:
		fmt.Fprintf(os.Stderr, "%s: store %s already held every cell; keeping it\n", sw.Name, f.Checkpoint)
	}
	return nil
}

// Merge is `saga merge`: it combines per-shard stores into one complete
// store that a single-process run of the same sweep (same flags,
// -checkpoint pointing at the merged file) loads in full, rendering
// without recomputing a cell. The sweep flags must match the shards':
// they determine the fingerprint every store is verified against and
// the cell count the merge must cover. It lives here so that both CLIs'
// tests can drive it.
func Merge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	driver := fs.String("driver", "", "sweep the shards belong to: "+strings.Join(experiments.SweepNames, ", ")+" (required)")
	out := fs.String("out", "", "merged checkpoint store to write (required)")
	f := Defaults()
	f.Register(fs, SweepFlags...)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *driver == "" || *out == "" {
		return errors.New("-driver and -out are required")
	}
	shards := fs.Args()
	if len(shards) == 0 {
		return errors.New("no shard stores given (pass them as positional arguments)")
	}
	p, err := f.Params()
	if err != nil {
		return err
	}
	sw, err := experiments.NewSweep(*driver, p)
	if err != nil {
		return err
	}
	n, err := serialize.MergeCheckpoints(*out, sw.Fingerprint, sw.Cells, shards)
	if err != nil {
		return err
	}
	if sw.Name == "robustness" {
		fmt.Printf("merge: %s complete — %d cells from %d shards in %s; summarize with `saga robustness -checkpoint %s` (same flags)\n",
			sw.Name, n, len(shards), *out, *out)
		return nil
	}
	// Flags must precede the figure name: figures stops parsing flags at
	// the first positional argument.
	fmt.Printf("merge: %s complete — %d cells from %d shards in %s; render with `figures -checkpoint %s %s` (same sweep flags)\n",
		sw.Name, n, len(shards), *out, *out, sw.Name)
	return nil
}

// client returns the daemon client -server names, or nil to compute in
// process. The daemon answers byte-identically to the in-process path,
// which is what lets a caller print either answer the same way.
func (f *Flags) client() *serve.Client {
	if f.Server == "" {
		return nil
	}
	return &serve.Client{BaseURL: strings.TrimRight(f.Server, "/"), Token: f.Token}
}

// instance reads and parses -in, keeping the bytes for a daemon request.
func (f *Flags) instance() (*graph.Instance, []byte, error) {
	if f.In == "" {
		return nil, nil, errors.New("-in is required")
	}
	raw, err := os.ReadFile(f.In)
	if err != nil {
		return nil, nil, err
	}
	inst, err := serialize.UnmarshalInstance(raw)
	return inst, raw, err
}

// Schedule schedules the -in instance with -scheduler, on the -server
// daemon when one is named, and returns the scheduler's name with the
// instance and its schedule.
func (f *Flags) Schedule(ctx context.Context) (string, *graph.Instance, *schedule.Schedule, error) {
	inst, raw, err := f.instance()
	if err != nil {
		return "", nil, nil, err
	}
	if c := f.client(); c != nil {
		resp, err := c.Schedule(ctx, serve.ScheduleRequest{Scheduler: f.Scheduler, Instance: raw})
		if err != nil {
			return "", nil, nil, err
		}
		sch, err := serialize.UnmarshalSchedule(resp.Schedule)
		return resp.Scheduler, inst, sch, err
	}
	s, err := scheduler.New(f.Scheduler)
	if err != nil {
		return "", nil, nil, err
	}
	sch, err := scheduler.Schedule(s, inst)
	return s.Name(), inst, sch, err
}

// Portfolio computes the pairwise PISA grid over -schedulers and its
// best k-subset, on the -server daemon when one is named, else through
// serve.Portfolio, the function the daemon itself answers with.
func (f *Flags) Portfolio(ctx context.Context, k int) (*serve.PortfolioResponse, error) {
	req := serve.PortfolioRequest{Schedulers: f.Schedulers, K: k, Iters: f.Iters, Restarts: f.Restarts, Seed: f.Seed}
	if c := f.client(); c != nil {
		// Bind the sweep the daemon would bind, to refuse before
		// dialing in the same words. A k the selector refuses, the
		// daemon refuses before building it, and answers itself.
		if experiments.CheckPortfolioSize(len(req.Schedulers), k) == nil {
			if _, _, err := experiments.Pairwise.Bind(f.SweepParams); err != nil {
				return nil, err
			}
		}
		return c.Portfolio(ctx, req)
	}
	return serve.Portfolio(req, f.Options("portfolio"))
}

// Robustness runs the jitter sweep of -scheduler on the -in instance:
// on the -server daemon when one is named, else in process as the
// "robustness" sweep, where -checkpoint and -shard apply. After a shard
// it returns nil: the store is the output.
func (f *Flags) Robustness(ctx context.Context) (*serve.RobustnessResponse, error) {
	if f.In == "" {
		return nil, errors.New("-in is required")
	}
	p, err := f.Params()
	if err != nil {
		return nil, err
	}
	if c := f.client(); c != nil {
		if f.Checkpoint != "" || f.Shard != "" {
			return nil, errors.New("-server is incompatible with -checkpoint/-shard (the daemon owns the computation)")
		}
		// Refuse before dialing what a local run refuses.
		if _, _, err := experiments.Robustness.Bind(p); err != nil {
			return nil, err
		}
		return c.Robustness(ctx, serve.RobustnessRequest{
			Scheduler: p.Scheduler, Instance: p.InstanceRaw, Sigma: p.Sigma, N: p.N, Seed: p.Seed,
		})
	}
	return Run(f, experiments.Robustness, p)
}
