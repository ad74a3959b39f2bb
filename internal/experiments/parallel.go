package experiments

import (
	"encoding/json"
	"fmt"
	"math"

	"saga/internal/core"
	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/runner"
	"saga/internal/scheduler"
	"saga/internal/serialize"
	"saga/internal/sim"
	"saga/internal/stats"
)

// Every experiment driver in this package is a grid or sampling loop of
// independent cells, one xRun(…, runner.Options) per sweep, built on
// runner.Map: seeds derive from cell position (runner.CellSeed or
// pre-split rng sub-streams), and results land by cell index. Every
// worker runs the scheduler values the caller passed: a scheduler is a
// stateless value (package scheduler), so sharing one across workers is
// what core.Run already does with its chains. All mutable state lives in
// the per-worker scheduler.Scratch threaded through runner.MapState,
// which carries everything PISA's incremental inner loop reuses — the
// patched cost tables, the undo log, the reachability buffers — so a
// worker's whole annealing chain runs allocation-free after warm-up
// without sharing a mutable byte with its siblings. Results are
// bit-identical for every worker count: determinism_test.go compares
// each driver at 1, 4 and GOMAXPROCS workers against a sequential
// oracle that lives only in that test file.
//
// The drivers also accept runner.Options.Include, splitting a
// sweep across processes (a static shard) or leases (internal/coord): a
// restricted run computes only its own cells (the rest of the returned
// result stays zero-valued/absent) and persists them to its checkpoint
// store; serialize.MergeCheckpoints combines the shard stores into one
// an unrestricted run resumes to the full, bit-identical result
// (distributed_test.go proves it). Every sweep's store index is its cell
// index. appSpecificRun's cells are its PISA grid; its benchmarking phase
// runs in process, unstored, on every run, shard and lease, because the
// observed weight ranges it produces shape every PISA cell's
// perturbation space.

// splitStreams pre-derives the n per-cell sub-streams a sequential loop
// would draw lazily (one r.Split() per iteration), so every cell
// consumes the stream of its position whatever the worker count.
func splitStreams(seed uint64, n int) []*rng.RNG {
	r := rng.New(seed)
	subs := make([]*rng.RNG, n)
	for i := range subs {
		subs[i] = r.Split()
	}
	return subs
}

// pisaCell is one checkpointable unit of a PISA grid: the best ratio
// plus the adversarial instance, serialized through package serialize so
// infinite link strengths survive the JSON round trip.
type pisaCell struct {
	Ratio    float64         `json:"ratio"`
	Instance json.RawMessage `json:"instance"`
}

// BenchmarkingRun reproduces Fig 2 under ro (workers, progress
// callbacks, checkpointing): run every scheduler on n instances of each
// named dataset and record, per instance, the scheduler's makespan ratio
// against the minimum makespan any scheduler achieved on that instance.
// One cell per dataset (benchmarkDataset); every dataset draws its
// instances from the same root seed, so a cell does not depend on which
// other datasets the sweep names.
func BenchmarkingRun(datasetNames []string, scheds []scheduler.Scheduler, n int, seed uint64, ro runner.Options) (*BenchmarkResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("experiments: benchmarking needs n >= 1 instances per dataset, got n = %d", n)
	}
	res := &BenchmarkResult{
		Datasets: datasetNames,
		Cells:    map[string]map[string]BenchmarkCell{},
	}
	for _, s := range scheds {
		res.Schedulers = append(res.Schedulers, s.Name())
	}
	cells, err := runner.Map(len(datasetNames), ro,
		func(k int) (map[string]BenchmarkCell, error) {
			return benchmarkDataset(datasetNames[k], scheds, n, seed)
		})
	if err != nil {
		return nil, err
	}
	for k, cell := range cells {
		res.Cells[datasetNames[k]] = cell
	}
	return res, nil
}

// pisaGrid runs PISA for every ordered off-diagonal pair of the
// schedulers under ro — the sweep behind pairwisePISARun and
// appSpecificRun. Cell k is the pair runner.OffDiagonal(k)
// = (i, j): scheduler j is the target, scheduler i the base, and the
// annealer starts from initial with perturb(target, base) and the seed
// runner.CellSeed(anneal.Seed, k). The returned grids are indexed
// [base][target] with a -1 diagonal; cells this run does not own (another
// shard's or lease's, or a failure routed through ro.OnCellError) stay
// -1 with a nil instance. Each cell's instance round-trips through
// package serialize, so infinite link strengths survive the checkpoint.
func pisaGrid(scheds []scheduler.Scheduler, anneal core.Options, initial func(*rng.RNG) *graph.Instance,
	perturb func(target, base scheduler.Scheduler) core.PerturbOptions, ro runner.Options) ([][]float64, [][]*graph.Instance, error) {
	n := len(scheds)
	ratios := make([][]float64, n)
	instances := make([][]*graph.Instance, n)
	for i := range ratios {
		ratios[i] = make([]float64, n)
		instances[i] = make([]*graph.Instance, n)
		for j := range ratios[i] {
			ratios[i][j] = -1
		}
	}
	if n < 2 {
		return ratios, instances, nil
	}
	anneal.Workers = ro.CellWorkers(n * (n - 1))
	cells, err := runner.MapState(n*(n-1), ro, scheduler.NewScratch,
		func(k int, scr *scheduler.Scratch) (pisaCell, error) {
			i, j := runner.OffDiagonal(k, n)
			target, base := scheds[j], scheds[i]
			ao := anneal
			ao.Seed = runner.CellSeed(anneal.Seed, k)
			ao.InitialInstance = initial
			ao.Perturb = perturb(target, base)
			ao.Scratch = scr // per-worker buffers; results are scratch-independent
			r, err := core.Run(target, base, ao)
			if err != nil {
				return pisaCell{}, err
			}
			raw, err := serialize.MarshalInstance(r.Best)
			if err != nil {
				return pisaCell{}, err
			}
			return pisaCell{Ratio: r.BestRatio, Instance: raw}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	for k, c := range cells {
		if len(c.Instance) == 0 {
			// Legitimately absent: another shard's (or lease's) cell, or a
			// failure already routed through OnCellError.
			if ro.Owns(k) && ro.OnCellError == nil {
				return nil, nil, fmt.Errorf("experiments: cell %d has no instance", k)
			}
			continue
		}
		i, j := runner.OffDiagonal(k, n)
		inst, err := serialize.UnmarshalInstance(c.Instance)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: cell (%d,%d): %w", i, j, err)
		}
		ratios[i][j] = c.Ratio
		instances[i][j] = inst
	}
	return ratios, instances, nil
}

// pairwisePISARun reproduces Fig 4 under ro: for every ordered pair
// (target A, base B) of schedulers, run PISA to find an instance
// maximizing M_A/M_B (pisaGrid). Per Section VI, each run restarts from
// random chain instances, and the perturbation space is restricted to
// the homogeneity requirements of the pair: if either scheduler was
// designed for homogeneous node speeds (or links), those weights are
// pinned to 1. Because each cell of the full 15×15 grid is an expensive
// annealing run, ro also carries progress callbacks and a checkpoint
// store for resumable sweeps (pass serialize.NewCheckpoint). The driver
// sets anneal.InitialInstance and anneal.Perturb per pair.
func pairwisePISARun(scheds []scheduler.Scheduler, anneal core.Options, ro runner.Options) (*PairwiseResult, error) {
	res := &PairwiseResult{Worst: make([]float64, len(scheds))}
	for _, s := range scheds {
		res.Schedulers = append(res.Schedulers, s.Name())
	}
	var err error
	res.Ratios, res.Instances, err = pisaGrid(scheds, anneal, datasets.InitialPISAInstance, pairPerturb, ro)
	if err != nil {
		return nil, err
	}
	// The diagonal and absent cells are -1, so they never raise a column
	// maximum above its zero start.
	for _, row := range res.Ratios {
		for j, r := range row {
			if r > res.Worst[j] {
				res.Worst[j] = r
			}
		}
	}
	return res, nil
}

// familyRun reproduces the Section VI-B family studies (Figs 7 and 8)
// under ro: sample n instances from the generator and record each
// scheduler's makespan on every instance, one cell per sampled instance.
// Every worker runs the given scheduler values, configuration included.
// ro also carries progress callbacks and a checkpoint store for
// resumable sampling sweeps (each cell's per-scheduler makespan vector
// round-trips through JSON).
func familyRun(gen func(*rng.RNG) *graph.Instance, scheds []scheduler.Scheduler, n int, seed uint64, ro runner.Options) (*FamilyResult, error) {
	res := &FamilyResult{
		Makespans: map[string][]float64{},
		Summaries: map[string]stats.Summary{},
	}
	for _, s := range scheds {
		res.Schedulers = append(res.Schedulers, s.Name())
	}
	subs := splitStreams(seed, n)
	cells, err := runner.MapState(n, ro, scheduler.NewScratch,
		func(k int, scr *scheduler.Scratch) ([]float64, error) {
			inst := gen(subs[k])
			out := scr.AcquireSchedule()
			defer scr.ReleaseSchedule(out)
			ms := make([]float64, len(scheds))
			for i, s := range scheds {
				if err := s.ScheduleScratch(inst, scr, out); err != nil {
					return nil, err
				}
				ms[i] = out.Makespan()
			}
			return ms, nil
		})
	if err != nil {
		return nil, err
	}
	for _, ms := range cells {
		if ms == nil {
			continue // another shard's sample; a full run never skips
		}
		for i, name := range res.Schedulers {
			res.Makespans[name] = append(res.Makespans[name], ms[i])
		}
	}
	for _, name := range res.Schedulers {
		res.Summaries[name] = stats.Summarize(res.Makespans[name])
	}
	return res, nil
}

// robustCell is one jitter sample of a robustness sweep.
type robustCell struct {
	Static   float64 `json:"static"`
	Adaptive float64 `json:"adaptive"`
}

// robustnessRun samples n jittered variants of the instance under ro and
// reports how the scheduler's committed schedule degrades (Static, the
// nominal schedule replayed by sim.Execute in Elastic mode) versus
// full re-planning (Adaptive), one cell per jitter sample. The nominal
// plan and every re-plan run the same scheduler value s,
// configuration included. ro also carries progress callbacks and a
// checkpoint store for resumable jitter sweeps (each cell is a (static,
// adaptive) makespan pair).
func robustnessRun(inst *graph.Instance, s scheduler.Scheduler, sigma float64, n int, seed uint64, ro runner.Options) (*RobustnessResult, error) {
	nominal, err := scheduler.Schedule(s, inst)
	if err != nil {
		return nil, err
	}
	res := &RobustnessResult{Scheduler: s.Name(), Nominal: nominal.Makespan()}
	subs := splitStreams(seed, n)
	cells, err := runner.MapState(n, ro, scheduler.NewScratch,
		func(k int, scr *scheduler.Scratch) (robustCell, error) {
			j := jitter(inst, sigma, subs[k])
			replayed, err := sim.Execute(j, nominal, sim.Elastic)
			if err != nil {
				return robustCell{}, err
			}
			re := scr.AcquireSchedule()
			defer scr.ReleaseSchedule(re)
			if err := s.ScheduleScratch(j, scr, re); err != nil {
				return robustCell{}, err
			}
			return robustCell{Static: replayed.Makespan, Adaptive: re.Makespan()}, nil
		})
	if err != nil {
		return nil, err
	}
	static := make([]float64, 0, n)
	adaptive := make([]float64, 0, n)
	for k, c := range cells {
		if !ro.Owns(k) {
			continue // summaries over this run's samples only
		}
		if ro.OnCellError != nil && c == (robustCell{}) {
			continue // the failure was reported; keep it out of the summary
		}
		static = append(static, c.Static)
		adaptive = append(adaptive, c.Adaptive)
	}
	res.Static = stats.Summarize(static)
	res.Adaptive = stats.Summarize(adaptive)
	return res, nil
}

// minmax folds values into a running (min, max) pair.
func minmax(lo, hi float64, vs ...float64) (float64, float64) {
	for _, v := range vs {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// appBenchCell is one benchmarking instance of an application-specific
// block: the per-scheduler ratios plus the observed weight ranges that
// shape the structure-preserving perturbation space.
type appBenchCell struct {
	Ratios                       []float64
	TaskLo, TaskHi, DepLo, DepHi float64
	SpeedLo, SpeedHi             float64
}

// appSpecificRun reproduces the Section VII block p.Workflow, p.CCR under
// ro: benchmark the schedulers on p.N in-family instances, then run the
// structure-preserving PISA variant for every scheduler pair (pisaGrid).
// The perturbation space scales weights to the ranges observed in the
// benchmarking dataset (standing in for the paper's execution-trace
// ranges) and removes the structural and link perturbations, so every
// explored instance keeps the application's topology and CCR. Range
// merging uses min/max only, so the assembled perturbation space — and
// with it every PISA cell — is independent of the worker count.
//
// The sweep's cells are the PISA grid alone; ro governs only it. The
// benchmarking phase is an in-process step that every run, shard and
// lease recomputes in full under ro's Workers and Context: it is never
// stored, restricted or degraded, because each PISA cell needs every
// range sample, and a missing one would silently reshape them all.
func appSpecificRun(scheds []scheduler.Scheduler, p SweepParams, ro runner.Options) (*AppSpecificResult, error) {
	n := len(scheds)
	res := &AppSpecificResult{
		Workflow:  p.Workflow,
		CCR:       p.CCR,
		Benchmark: make([]float64, n),
	}
	for _, s := range scheds {
		res.Schedulers = append(res.Schedulers, s.Name())
	}

	// Benchmarking row + observed weight ranges, one cell per instance.
	subs := splitStreams(p.Seed^0xA99, p.N)
	benchCells, err := runner.Map(p.N, runner.Options{Workers: ro.Workers, Context: ro.Context},
		func(k int) (appBenchCell, error) {
			inst := appInstance(p.Workflow, p.CCR, subs[k])
			c := appBenchCell{
				TaskLo: math.Inf(1), TaskHi: math.Inf(-1),
				DepLo: math.Inf(1), DepHi: math.Inf(-1),
				SpeedLo: math.Inf(1), SpeedHi: math.Inf(-1),
			}
			for _, t := range inst.Graph.Tasks {
				c.TaskLo, c.TaskHi = minmax(c.TaskLo, c.TaskHi, t.Cost)
			}
			for _, succ := range inst.Graph.Succ {
				for _, d := range succ {
					c.DepLo, c.DepHi = minmax(c.DepLo, c.DepHi, d.Cost)
				}
			}
			for _, sp := range inst.Net.Speeds {
				c.SpeedLo, c.SpeedHi = minmax(c.SpeedLo, c.SpeedHi, sp)
			}
			ratios, err := MakespanRatioAgainstBest(inst, scheds)
			if err != nil {
				return appBenchCell{}, err
			}
			c.Ratios = make([]float64, len(scheds))
			for i, s := range scheds {
				c.Ratios[i] = ratios[s.Name()]
			}
			return c, nil
		})
	if err != nil {
		return nil, err
	}
	taskRange := [2]float64{math.Inf(1), math.Inf(-1)}
	depRange := [2]float64{math.Inf(1), math.Inf(-1)}
	speedRange := [2]float64{math.Inf(1), math.Inf(-1)}
	for _, c := range benchCells {
		taskRange[0], taskRange[1] = minmax(taskRange[0], taskRange[1], c.TaskLo, c.TaskHi)
		depRange[0], depRange[1] = minmax(depRange[0], depRange[1], c.DepLo, c.DepHi)
		speedRange[0], speedRange[1] = minmax(speedRange[0], speedRange[1], c.SpeedLo, c.SpeedHi)
		for j, v := range c.Ratios {
			if v > res.Benchmark[j] {
				res.Benchmark[j] = v
			}
		}
	}

	// PISA grid with the application-specific PERTURB implementation.
	perturb := core.PerturbOptions{
		Step:              0.1,
		TaskCost:          taskRange,
		DepCost:           depRange,
		Speed:             speedRange,
		FixLinks:          true,
		FixStructure:      true,
		KeepPinnedWeights: true,
	}
	res.Ratios, res.Instances, err = pisaGrid(scheds, p.Anneal(),
		func(r *rng.RNG) *graph.Instance { return appInstance(p.Workflow, p.CCR, r) },
		func(_, _ scheduler.Scheduler) core.PerturbOptions { return perturb },
		ro)
	if err != nil {
		return nil, err
	}
	return res, nil
}
