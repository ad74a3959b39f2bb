package experiments

import (
	"crypto/sha256"
	"fmt"
	"slices"
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

// Sweep is one named checkpointable sweep. Fingerprint identifies the
// sweep's exact parameters (it deliberately excludes shard identity —
// every shard of one sweep shares it, which is what lets
// serialize.MergeCheckpoints verify the stores belong together and the
// merged store resume an unsharded run). Cells is the total number of
// checkpoint cells a complete store holds, the coverage bound for the
// merge; a cell's store index is its cell index. Result runs the sweep
// under the given runner options and returns the driver's result
// (*BenchmarkResult for fig2, *PairwiseResult for fig4 and pairwise,
// *FamilyResult for fig7/fig8, *AppSpecificResult, *RobustnessResult),
// partial under a shard or lease, whose output is the checkpoint store;
// Run discards it. Both honor ro.Include and ro.OnCellError over those
// cell indices, which is what lets a static shard and the internal/coord
// lease protocol restrict a run to their cells and report per-cell
// failures without any driver cooperation.
type Sweep struct {
	Name        string
	Fingerprint string
	Cells       int
	Result      func(ro runner.Options) (any, error)
	Run         func(ro runner.Options) error
}

// freshSchedulers resolves scheduler names through the registry: the
// rosters NewSweep builds from names. The drivers then share these
// values across all their workers.
func freshSchedulers(names []string) ([]scheduler.Scheduler, error) {
	out := make([]scheduler.Scheduler, len(names))
	for i, n := range names {
		s, err := scheduler.New(n)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// checkAnneal refuses a PISA sweep of fewer than one annealing
// iteration or restart per cell, before any cell runs.
func checkAnneal(iters, restarts int) error {
	if iters < 1 || restarts < 1 {
		return fmt.Errorf("experiments: PISA sweep needs iters >= 1 and restarts >= 1, got iters = %d, restarts = %d", iters, restarts)
	}
	return nil
}

// SweepNames lists the sweeps NewSweep accepts, in CLI help order.
var SweepNames = []string{"fig2", "fig4", "fig7", "fig8", "appspecific", "robustness", "pairwise"}

// NewSweep resolves a sweep name (a checkpointable cmd/figures driver)
// and its parameters into the fingerprint, cell count, and runnable
// closures shared by `figures`, `saga robustness`, `saga worker`, `saga
// merge`, the coordinator hub and the daemon. Each sweep's roster,
// annealing options and seeds are wired here and nowhere else, and so
// is what a sweep parameter may be: every caller, a daemon request
// included, is refused here in the same words.
func NewSweep(name string, p SweepParams) (*Sweep, error) {
	sw := &Sweep{Name: name}
	switch name {
	case "fig2":
		if p.N < 1 {
			return nil, fmt.Errorf("experiments: fig2 sweep needs n >= 1 instances per dataset, got n = %d", p.N)
		}
		// Cell k is dataset k of Table II, so the fingerprint covers the
		// dataset order as well as the roster.
		sw.Fingerprint = fmt.Sprintf("fig2 seed=%d n=%d datasets=%s schedulers=%s",
			p.Seed, p.N, strings.Join(datasets.TableII, ","), strings.Join(schedulers.ExperimentalNames, ","))
		sw.Cells = len(datasets.TableII)
		sw.Result = func(ro runner.Options) (any, error) {
			return BenchmarkingRun(datasets.TableII, schedulers.Experimental(), p.N, p.Seed, ro)
		}
	case "fig4":
		if err := checkAnneal(p.Iters, p.Restarts); err != nil {
			return nil, err
		}
		roster := schedulers.ExperimentalNames
		// The fingerprint covers flags AND roster, since cell indices map
		// to (target, base) pairs through the roster order.
		sw.Fingerprint = fmt.Sprintf("fig4 seed=%d iters=%d restarts=%d schedulers=%s",
			p.Seed, p.Iters, p.Restarts, strings.Join(roster, ","))
		sw.Cells = len(roster) * (len(roster) - 1)
		sw.Result = func(ro runner.Options) (any, error) {
			return pairwisePISARun(schedulers.Experimental(), p.Anneal(), ro)
		}
	case "fig7", "fig8":
		if p.N < 1 {
			return nil, fmt.Errorf("experiments: %s sweep needs n >= 1 instances, got n = %d", name, p.N)
		}
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
			return familyRun(gen, scheds, p.N, p.Seed, ro)
		}
	case "appspecific":
		if p.Workflow == "" {
			return nil, fmt.Errorf("experiments: appspecific sweep needs a workflow")
		}
		if p.CCR <= 0 {
			return nil, fmt.Errorf("experiments: appspecific sweep needs a single CCR level > 0 (one store per block)")
		}
		if p.N < 1 {
			return nil, fmt.Errorf("experiments: appspecific sweep needs n >= 1 benchmarking instances, got n = %d", p.N)
		}
		if err := checkAnneal(p.Iters, p.Restarts); err != nil {
			return nil, err
		}
		roster := schedulers.AppSpecificNames
		nApp := len(roster)
		// The store holds the PISA grid only; -n sizes the benchmarking
		// phase, which every run recomputes. "bench=" rather than the
		// "n=" of stores that also held the benchmarking cells, so such a
		// store is refused as a different sweep instead of misread.
		sw.Fingerprint = fmt.Sprintf("appspecific workflow=%s ccr=%g seed=%d bench=%d iters=%d restarts=%d schedulers=%s",
			p.Workflow, p.CCR, p.Seed, p.N, p.Iters, p.Restarts, strings.Join(roster, ","))
		sw.Cells = nApp * (nApp - 1)
		sw.Result = func(ro runner.Options) (any, error) {
			return appSpecificRun(schedulers.AppSpecific(), appSpecificOptions{
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
		if p.N < 1 {
			return nil, fmt.Errorf("experiments: robustness sweep needs n >= 1 perturbations, got n = %d", p.N)
		}
		// Refused outside [0, 10], NaN included: a NaN sigma perturbs
		// every cost into NaN.
		if !(p.Sigma >= 0 && p.Sigma <= 10) {
			return nil, fmt.Errorf("experiments: robustness sweep needs sigma in [0, 10], got sigma = %g", p.Sigma)
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
			return robustnessRun(inst, s, p.Sigma, p.N, p.Seed, ro)
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
		for i, n := range p.Schedulers {
			if slices.Contains(p.Schedulers[:i], n) {
				return nil, fmt.Errorf("experiments: pairwise sweep names scheduler %q twice", n)
			}
		}
		scheds, err := freshSchedulers(p.Schedulers)
		if err != nil {
			return nil, err
		}
		if err := checkAnneal(p.Iters, p.Restarts); err != nil {
			return nil, err
		}
		sw.Fingerprint = fmt.Sprintf("pairwise seed=%d iters=%d restarts=%d schedulers=%s",
			p.Seed, p.Iters, p.Restarts, strings.Join(p.Schedulers, ","))
		sw.Cells = len(scheds) * (len(scheds) - 1)
		sw.Result = func(ro runner.Options) (any, error) {
			return pairwisePISARun(scheds, p.Anneal(), ro)
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
