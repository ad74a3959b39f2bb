package experiments

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"

	"saga/internal/core"
	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
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
}

// Anneal assembles the annealing options of every PISA sweep, so a
// worker shard and a local `figures` run of the same parameters compute
// byte-identical cells.
func (p SweepParams) Anneal() core.Options {
	o := core.DefaultOptions()
	o.MaxIters = p.Iters
	o.Restarts = p.Restarts
	o.Seed = p.Seed
	return o
}

// Sweep is one sweep bound to its parameters, its result type erased.
// Fingerprint identifies the parameters but not a shard, so that
// serialize.MergeCheckpoints can verify shard stores belong together.
// Cells is the number of cells a complete store holds, a cell's store
// index its cell index. Run runs the sweep, honoring ro.Include and
// ro.OnCellError over those indices: that is how a static shard and an
// internal/coord lease restrict a run to their cells and report
// per-cell failures.
type Sweep struct {
	Name        string
	Fingerprint string
	Cells       int
	Run         func(ro runner.Options) error
}

// SweepDef defines one named sweep whose driver returns a T. bind checks
// the parameters and returns the fingerprint, the cell count and the
// compute function over them.
type SweepDef[T any] struct {
	name string
	bind func(p SweepParams) (fingerprint string, cells int, compute func(runner.Options) (T, error), err error)
}

// Bind checks p, refusing it in the same words for every caller, and
// returns the bound Sweep with compute, which returns the driver's
// result: partial under a shard or lease, whose output is the store.
func (d SweepDef[T]) Bind(p SweepParams) (*Sweep, func(runner.Options) (T, error), error) {
	fp, cells, compute, err := d.bind(p)
	if err != nil {
		return nil, nil, err
	}
	return &Sweep{Name: d.name, Fingerprint: fp, Cells: cells, Run: func(ro runner.Options) error {
		_, err := compute(ro)
		return err
	}}, compute, nil
}

// The sweeps, one definition each. A sweep's parameter checks, roster,
// annealing options and seeds are wired in its bind function below and
// nowhere else.
var (
	// Fig2 is the Fig 2 benchmarking grid over Table II.
	Fig2 = SweepDef[*BenchmarkResult]{"fig2", bindFig2}
	// Fig4 is the Fig 4 heatmap over the experimental roster.
	Fig4 = SweepDef[*PairwiseResult]{"fig4", bindGrid("fig4", func(SweepParams) []string { return schedulers.ExperimentalNames })}
	// Fig7 and Fig8 are the fork-join and wide-fork family studies.
	Fig7 = SweepDef[*FamilyResult]{"fig7", bindFamily("fig7", datasets.Fig7Instance)}
	Fig8 = SweepDef[*FamilyResult]{"fig8", bindFamily("fig8", datasets.Fig8Instance)}
	// AppSpecific is one (workflow, CCR) block of Figs 10-19.
	AppSpecific = SweepDef[*AppSpecificResult]{"appspecific", bindAppSpecific}
	// Robustness is one scheduler's jitter sweep on one instance.
	Robustness = SweepDef[*RobustnessResult]{"robustness", bindRobustness}
	// Pairwise is Fig 4 over a client's roster, behind /v1/portfolio.
	Pairwise = SweepDef[*PairwiseResult]{"pairwise", bindGrid("pairwise", func(p SweepParams) []string { return p.Schedulers })}
)

// sweepTable holds every definition, in CLI help order: NewSweep looks
// names up in it and SweepNames lists it.
var sweepTable = []interface {
	named() string
	sweep(SweepParams) (*Sweep, error)
}{Fig2, Fig4, Fig7, Fig8, AppSpecific, Robustness, Pairwise}

func (d SweepDef[T]) named() string { return d.name }
func (d SweepDef[T]) sweep(p SweepParams) (*Sweep, error) {
	sw, _, err := d.Bind(p)
	return sw, err
}

// SweepNames lists the sweeps NewSweep accepts, in CLI help order.
var SweepNames = func() (names []string) {
	for _, d := range sweepTable {
		names = append(names, d.named())
	}
	return names
}()

// NewSweep binds the sweep named name to p, for the callers that hold a
// name: `saga worker`, `saga merge` and the coordinator hub.
func NewSweep(name string, p SweepParams) (*Sweep, error) {
	for _, d := range sweepTable {
		if d.named() == name {
			return d.sweep(p)
		}
	}
	return nil, fmt.Errorf("experiments: unknown sweep %q (want one of %s)", name, strings.Join(SweepNames, ", "))
}

// freshSchedulers resolves a roster through the registry; the drivers
// share the values across all their workers.
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

func bindFig2(p SweepParams) (string, int, func(runner.Options) (*BenchmarkResult, error), error) {
	if p.N < 1 {
		return "", 0, nil, fmt.Errorf("experiments: fig2 sweep needs n >= 1 instances per dataset, got n = %d", p.N)
	}
	// Cell k is dataset k of Table II, so the fingerprint covers the
	// dataset order as well as the roster.
	return fmt.Sprintf("fig2 seed=%d n=%d datasets=%s schedulers=%s",
			p.Seed, p.N, strings.Join(datasets.TableII, ","), strings.Join(schedulers.ExperimentalNames, ",")),
		len(datasets.TableII), func(ro runner.Options) (*BenchmarkResult, error) {
			return BenchmarkingRun(datasets.TableII, schedulers.Experimental(), p.N, p.Seed, ro)
		}, nil
}

// bindFamily binds a family study: CPoP and HEFT on p.N sampled
// instances of gen's family.
func bindFamily(name string, gen func(*rng.RNG) *graph.Instance) func(SweepParams) (string, int, func(runner.Options) (*FamilyResult, error), error) {
	return func(p SweepParams) (string, int, func(runner.Options) (*FamilyResult, error), error) {
		if p.N < 1 {
			return "", 0, nil, fmt.Errorf("experiments: %s sweep needs n >= 1 instances, got n = %d", name, p.N)
		}
		scheds, err := freshSchedulers([]string{"CPoP", "HEFT"})
		return fmt.Sprintf("%s seed=%d n=%d schedulers=CPoP,HEFT", name, p.Seed, p.N), p.N,
			func(ro runner.Options) (*FamilyResult, error) { return familyRun(gen, scheds, p.N, p.Seed, ro) }, err
	}
}

func bindAppSpecific(p SweepParams) (string, int, func(runner.Options) (*AppSpecificResult, error), error) {
	switch {
	case p.Workflow == "":
		return "", 0, nil, fmt.Errorf("experiments: appspecific sweep needs a workflow")
	case p.CCR <= 0:
		return "", 0, nil, fmt.Errorf("experiments: appspecific sweep needs a single CCR level > 0 (one store per block)")
	case p.N < 1:
		return "", 0, nil, fmt.Errorf("experiments: appspecific sweep needs n >= 1 benchmarking instances, got n = %d", p.N)
	}
	roster := schedulers.AppSpecificNames
	// The store holds the PISA grid only; -n sizes the benchmarking
	// phase, which every run recomputes. "bench=" rather than the
	// "n=" of stores that also held the benchmarking cells, so such a
	// store is refused as a different sweep instead of misread.
	return fmt.Sprintf("appspecific workflow=%s ccr=%g seed=%d bench=%d iters=%d restarts=%d schedulers=%s",
			p.Workflow, p.CCR, p.Seed, p.N, p.Iters, p.Restarts, strings.Join(roster, ",")),
		len(roster) * (len(roster) - 1), func(ro runner.Options) (*AppSpecificResult, error) {
			return appSpecificRun(schedulers.AppSpecific(), p, ro)
		}, checkAnneal(p.Iters, p.Restarts)
}

func bindRobustness(p SweepParams) (string, int, func(runner.Options) (*RobustnessResult, error), error) {
	switch {
	case p.Scheduler == "":
		return "", 0, nil, fmt.Errorf("experiments: robustness sweep needs a scheduler")
	case len(p.InstanceRaw) == 0:
		return "", 0, nil, fmt.Errorf("experiments: robustness sweep needs the instance bytes (-in)")
	case p.N < 1:
		return "", 0, nil, fmt.Errorf("experiments: robustness sweep needs n >= 1 perturbations, got n = %d", p.N)
	case !(p.Sigma >= 0 && p.Sigma <= 10):
		// NaN included: a NaN sigma perturbs every cost into NaN.
		return "", 0, nil, fmt.Errorf("experiments: robustness sweep needs sigma in [0, 10], got sigma = %g", p.Sigma)
	}
	inst, err := serialize.UnmarshalInstance(p.InstanceRaw)
	if err != nil {
		return "", 0, nil, err
	}
	s, err := scheduler.New(p.Scheduler)
	// The exact format `saga robustness -checkpoint` has always
	// written: a sharded worker's store is resumable by the
	// single-process command and vice versa. The hash covers the
	// instance bytes, not the file path (see SweepParams).
	return fmt.Sprintf("robustness scheduler=%s in=%x sigma=%g n=%d seed=%d",
			p.Scheduler, sha256.Sum256(p.InstanceRaw), p.Sigma, p.N, p.Seed),
		p.N, func(ro runner.Options) (*RobustnessResult, error) {
			return robustnessRun(inst, s, p.Sigma, p.N, p.Seed, ro)
		}, err
}

// bindGrid binds PISA over every ordered pair of roster(p). The
// fingerprint covers flags AND roster, in order, since cell indices map
// to (target, base) pairs through it: two portfolio requests share a
// sweep exactly when they would compute the same grid.
func bindGrid(name string, roster func(SweepParams) []string) func(SweepParams) (string, int, func(runner.Options) (*PairwiseResult, error), error) {
	return func(p SweepParams) (string, int, func(runner.Options) (*PairwiseResult, error), error) {
		names := roster(p)
		if len(names) < 2 {
			return "", 0, nil, fmt.Errorf("experiments: %s sweep needs at least 2 schedulers", name)
		}
		for i, n := range names {
			if slices.Contains(names[:i], n) {
				return "", 0, nil, fmt.Errorf("experiments: %s sweep names scheduler %q twice", name, n)
			}
		}
		scheds, err := freshSchedulers(names)
		if err == nil {
			err = checkAnneal(p.Iters, p.Restarts)
		}
		return fmt.Sprintf("%s seed=%d iters=%d restarts=%d schedulers=%s",
				name, p.Seed, p.Iters, p.Restarts, strings.Join(names, ",")),
			len(names) * (len(names) - 1), func(ro runner.Options) (*PairwiseResult, error) {
				return pairwisePISARun(scheds, p.Anneal(), ro)
			}, err
	}
}
