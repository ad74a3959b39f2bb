package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"saga/internal/core"
	"saga/internal/datasets"
	"saga/internal/runner"
	"saga/internal/scheduler"
	"saga/internal/schedulers"
	"saga/internal/serialize"
)

// This file is the registry behind the distributed sweep protocol: the
// named checkpointable sweeps a `saga worker` process can run one shard
// of, and that `saga merge` and `cmd/figures -checkpoint` address by the
// same fingerprint.

// SweepParams are the CLI-level inputs that identify a distributed
// sweep. They mirror the sweep flags of internal/cli: N is -n (instances
// or samples), Iters/Restarts/Seed the annealing budget and root seed,
// Workflow and CCR the appspecific block. Fields a sweep does not use
// are ignored by it (and excluded from its fingerprint).
type SweepParams struct {
	N        int
	Iters    int
	Restarts int
	Seed     uint64
	Workflow string
	CCR      float64

	// Scheduler, Sigma and InstanceRaw parameterize the robustness sweep
	// (its -scheduler/-sigma flags and the exact bytes of its -in file).
	// InstanceRaw is hashed into the fingerprint, not embedded: resuming
	// after the instance file was regenerated in place must fail loudly
	// instead of mixing cells from two different instances.
	Scheduler   string
	Sigma       float64
	InstanceRaw []byte

	// Schedulers parameterizes the pairwise sweep: the roster whose
	// off-diagonal (target, base) grid it runs. Order matters — cell
	// indices map to pairs through it — so it is part of the
	// fingerprint verbatim.
	Schedulers []string

	// ChainWorkers bounds intra-cell parallelism (core.Options.Workers /
	// GAOptions.Workers) inside every annealing cell. It is deliberately
	// excluded from all fingerprints: results are bit-identical for every
	// value (the parallel chains merge canonically — see internal/core),
	// so stores written at different ChainWorkers are interchangeable.
	// Leave it 0 in sharded workers unless cells outnumber cores locally:
	// runner.Map already uses one goroutine per cell.
	ChainWorkers int
}

// Anneal assembles the annealing options of every PISA sweep, so a
// worker shard and a local `figures` run of the same parameters compute
// byte-identical cells.
func (p SweepParams) Anneal() core.Options {
	o := core.DefaultOptions()
	o.MaxIters = p.Iters
	o.Restarts = p.Restarts
	o.Seed = p.Seed
	o.Workers = p.ChainWorkers
	return o
}

// benchInstances resolves N the way AppSpecificRun does (<= 0 means 20),
// so fingerprints and cell counts agree with the driver.
func (p SweepParams) benchInstances() int {
	if p.N <= 0 {
		return 20
	}
	return p.N
}

// Sweep is one named checkpointable sweep. Fingerprint identifies the
// sweep's exact parameters (it deliberately excludes shard identity —
// every shard of one sweep shares it, which is what lets
// serialize.MergeCheckpoints verify the stores belong together and the
// merged store resume an unsharded run). Cells is the total number of
// checkpoint cells a complete store holds, the coverage bound for the
// merge. Result runs the sweep under the given runner options and
// returns the driver's result (*PairwiseResult for fig4 and pairwise,
// *FamilyResult for fig7/fig8, *AppSpecificResult, *RobustnessResult),
// partial under a shard or lease, whose output is the checkpoint store;
// Run discards it. Both honor ro.Include and ro.OnCellError in
// store-index space (the same global indices ShardSpec and the
// checkpoint key on), which is what lets the internal/coord lease
// protocol restrict a run to leased cells and report per-cell failures
// without any driver cooperation.
type Sweep struct {
	Name        string
	Fingerprint string
	Cells       int
	Result      func(ro runner.Options) (any, error)
	Run         func(ro runner.Options) error
}

// SweepNames lists the sweeps NewSweep accepts, in CLI help order.
var SweepNames = []string{"fig4", "fig7", "fig8", "appspecific", "robustness", "pairwise"}

// NewSweep resolves a sweep name (a checkpointable cmd/figures driver)
// and its parameters into the fingerprint, cell count, and runnable
// closures shared by `figures`, `saga robustness`, `saga worker`, `saga
// merge`, the coordinator hub and the daemon. Each sweep's roster,
// annealing options and seeds are wired here and nowhere else.
func NewSweep(name string, p SweepParams) (*Sweep, error) {
	sw := &Sweep{Name: name}
	switch name {
	case "fig4":
		roster := schedulers.ExperimentalNames
		// The fingerprint covers flags AND roster, since cell indices map
		// to (target, base) pairs through the roster order.
		sw.Fingerprint = fmt.Sprintf("fig4 seed=%d iters=%d restarts=%d schedulers=%s",
			p.Seed, p.Iters, p.Restarts, strings.Join(roster, ","))
		sw.Cells = len(roster) * (len(roster) - 1)
		sw.Result = func(ro runner.Options) (any, error) {
			return PairwisePISARun(schedulers.Experimental(), PairwiseOptions{Anneal: p.Anneal()}, ro)
		}
	case "fig7", "fig8":
		gen := datasets.Fig7Instance
		if name == "fig8" {
			gen = datasets.Fig8Instance
		}
		scheds, err := freshSchedulers([]string{"CPoP", "HEFT"})
		if err != nil {
			return nil, err
		}
		sw.Fingerprint = fmt.Sprintf("%s seed=%d n=%d schedulers=CPoP,HEFT", name, p.Seed, p.N)
		sw.Cells = p.N
		sw.Result = func(ro runner.Options) (any, error) {
			return FamilyRun(gen, scheds, p.N, p.Seed, ro)
		}
	case "appspecific":
		if p.Workflow == "" {
			return nil, fmt.Errorf("experiments: appspecific sweep needs a workflow")
		}
		if p.CCR <= 0 {
			return nil, fmt.Errorf("experiments: appspecific sweep needs a single CCR level > 0 (one store per block)")
		}
		roster := schedulers.AppSpecificNames
		nApp := len(roster)
		sw.Fingerprint = fmt.Sprintf("appspecific workflow=%s ccr=%g seed=%d n=%d iters=%d restarts=%d schedulers=%s",
			p.Workflow, p.CCR, p.Seed, p.N, p.Iters, p.Restarts, strings.Join(roster, ","))
		// Benchmarking cells first, then the PISA grid in its disjoint
		// OffsetCheckpoint window.
		sw.Cells = p.benchInstances() + nApp*(nApp-1)
		sw.Result = func(ro runner.Options) (any, error) {
			return AppSpecificRun(schedulers.AppSpecific(), AppSpecificOptions{
				Workflow:           p.Workflow,
				CCR:                p.CCR,
				BenchmarkInstances: p.N,
				Anneal:             p.Anneal(),
			}, ro)
		}
	case "robustness":
		if p.Scheduler == "" {
			return nil, fmt.Errorf("experiments: robustness sweep needs a scheduler")
		}
		if len(p.InstanceRaw) == 0 {
			return nil, fmt.Errorf("experiments: robustness sweep needs the instance bytes (-in)")
		}
		inst, err := serialize.UnmarshalInstance(p.InstanceRaw)
		if err != nil {
			return nil, err
		}
		s, err := scheduler.New(p.Scheduler)
		if err != nil {
			return nil, err
		}
		// The exact format `saga robustness -checkpoint` has always
		// written: a sharded worker's store is resumable by the
		// single-process command and vice versa. The hash covers the
		// instance bytes, not the file path (see SweepParams).
		sw.Fingerprint = fmt.Sprintf("robustness scheduler=%s in=%x sigma=%g n=%d seed=%d",
			p.Scheduler, sha256.Sum256(p.InstanceRaw), p.Sigma, p.N, p.Seed)
		sw.Cells = p.N
		sw.Result = func(ro runner.Options) (any, error) {
			return RobustnessRun(inst, s, p.Sigma, p.N, p.Seed, ro)
		}
	case "pairwise":
		// fig4 with a caller-chosen roster: the sweep behind /v1/portfolio
		// and `saga portfolio` (internal/serve.Portfolio), where the client
		// names the schedulers. The fingerprint covers the roster verbatim,
		// so two requests share a sweep exactly when they would compute the
		// same grid.
		if len(p.Schedulers) < 2 {
			return nil, fmt.Errorf("experiments: pairwise sweep needs at least 2 schedulers")
		}
		scheds, err := freshSchedulers(p.Schedulers)
		if err != nil {
			return nil, err
		}
		sw.Fingerprint = fmt.Sprintf("pairwise seed=%d iters=%d restarts=%d schedulers=%s",
			p.Seed, p.Iters, p.Restarts, strings.Join(p.Schedulers, ","))
		sw.Cells = len(scheds) * (len(scheds) - 1)
		sw.Result = func(ro runner.Options) (any, error) {
			return PairwisePISARun(scheds, PairwiseOptions{Anneal: p.Anneal()}, ro)
		}
	default:
		return nil, fmt.Errorf("experiments: unknown sweep %q (want one of %s)", name, strings.Join(SweepNames, ", "))
	}
	sw.Run = func(ro runner.Options) error {
		_, err := sw.Result(ro)
		return err
	}
	return sw, nil
}
