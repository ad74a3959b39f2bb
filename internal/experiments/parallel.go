package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"saga/internal/core"
	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/runner"
	"saga/internal/scheduler"
	"saga/internal/serialize"
	"saga/internal/stats"
)

// Every experiment driver in this package is a grid or sampling loop of
// independent cells, so each has a parallel counterpart built on
// runner.Map: seeds derive from cell position (runner.CellSeed or
// pre-split rng sub-streams), results land by cell index, and schedulers
// are re-instantiated from the registry per cell so no state is shared
// between workers. The per-worker scheduler.Scratch threaded through
// runner.MapState carries everything PISA's incremental inner loop
// reuses — the patched cost tables, the undo log, the reachability
// buffers — so a worker's whole annealing chain runs allocation-free
// after warm-up without sharing a byte with its siblings. The parallel results are bit-identical to the
// sequential drivers for every worker count — the determinism suite in
// determinism_test.go asserts it for all six.
//
// The Run variants also accept runner.Options.Shard, splitting a sweep
// across processes: a sharded run computes only its own cells (the rest
// of the returned result stays zero-valued/absent) and persists them to
// its checkpoint store; serialize.MergeCheckpoints combines the shard
// stores into one an unsharded run resumes to the full, bit-identical
// result (distributed_test.go proves it). AppSpecificRun shards only its
// PISA phase — every shard recomputes the cheap benchmarking phase in
// full because the observed weight ranges it produces shape every PISA
// cell's perturbation space.

// freshSchedulers re-instantiates schedulers from the registry by name,
// giving each worker its own copies (WBA carries a construction seed;
// sharing one value is safe today, but fresh copies keep the drivers
// correct for any future stateful scheduler).
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

// splitStreams pre-derives the n per-cell sub-streams the sequential
// drivers draw lazily (one r.Split() per loop iteration), so parallel
// cells consume exactly the stream their sequential position would.
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

// BenchmarkingRun computes the same grid as Benchmarking under ro
// (workers, progress callbacks, checkpointing), one cell per dataset.
// Every dataset draws its instances from the same root seed in both
// drivers, so results are bit-identical to the sequential reference.
func BenchmarkingRun(datasetNames []string, scheds []scheduler.Scheduler, n int, seed uint64, ro runner.Options) (*BenchmarkResult, error) {
	res := &BenchmarkResult{
		Datasets: datasetNames,
		Cells:    map[string]map[string]BenchmarkCell{},
	}
	for _, s := range scheds {
		res.Schedulers = append(res.Schedulers, s.Name())
	}
	cells, err := runner.Map(len(datasetNames), ro,
		func(k int) (map[string]BenchmarkCell, error) {
			local, err := freshSchedulers(res.Schedulers)
			if err != nil {
				return nil, err
			}
			sub, err := Benchmarking([]string{datasetNames[k]}, local, n, seed)
			if err != nil {
				return nil, err
			}
			return sub.Cells[datasetNames[k]], nil
		})
	if err != nil {
		return nil, err
	}
	for k, cell := range cells {
		res.Cells[datasetNames[k]] = cell
	}
	return res, nil
}

// PairwisePISARun computes the same grid as PairwisePISA under ro. Each
// off-diagonal cell gets the seed its sequential position implies, so
// results are deterministic and identical to the sequential driver for
// the same options at every worker count. Because each cell of the full
// 15×15 grid is an expensive annealing run, ro also carries progress
// callbacks and a checkpoint store for resumable sweeps (pass
// serialize.NewCheckpoint).
func PairwisePISARun(scheds []scheduler.Scheduler, opts PairwiseOptions, ro runner.Options) (*PairwiseResult, error) {
	n := len(scheds)
	res := &PairwiseResult{
		Ratios:    make([][]float64, n),
		Worst:     make([]float64, n),
		Instances: make([][]*graph.Instance, n),
	}
	for _, s := range scheds {
		res.Schedulers = append(res.Schedulers, s.Name())
	}
	for i := range res.Ratios {
		res.Ratios[i] = make([]float64, n)
		res.Instances[i] = make([]*graph.Instance, n)
		for j := range res.Ratios[i] {
			res.Ratios[i][j] = -1
		}
	}
	if n < 2 {
		return res, nil
	}

	baseSeed := opts.Anneal.Seed
	cells, err := runner.MapState(n*(n-1), ro, scheduler.NewScratch,
		func(k int, scr *scheduler.Scratch) (pisaCell, error) {
			i, j := runner.OffDiagonal(k, n)
			target, err := scheduler.New(res.Schedulers[j])
			if err != nil {
				return pisaCell{}, err
			}
			base, err := scheduler.New(res.Schedulers[i])
			if err != nil {
				return pisaCell{}, err
			}
			ao := opts.Anneal
			ao.Seed = runner.CellSeed(baseSeed, k)
			ao.InitialInstance = datasets.InitialPISAInstance
			ao.Perturb = pairPerturb(target, base)
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
		return nil, err
	}
	for k, c := range cells {
		if len(c.Instance) == 0 {
			// Legitimately absent: another shard's (or lease's) cell, or a
			// failure already routed through OnCellError.
			if ro.Owns(k) && ro.OnCellError == nil {
				return nil, fmt.Errorf("experiments: cell %d has no instance", k)
			}
			continue
		}
		i, j := runner.OffDiagonal(k, n)
		inst, err := serialize.UnmarshalInstance(c.Instance)
		if err != nil {
			return nil, fmt.Errorf("experiments: cell (%d,%d): %w", i, j, err)
		}
		res.Ratios[i][j] = c.Ratio
		res.Instances[i][j] = inst
		if c.Ratio > res.Worst[j] {
			res.Worst[j] = c.Ratio
		}
	}
	return res, nil
}

// FamilyRun computes the same result as Family under ro, one cell per
// sampled instance. The schedulers must be registry-instantiable (every
// Table I algorithm is), so each worker runs fresh copies. ro also
// carries progress callbacks and a checkpoint store for resumable
// sampling sweeps (each cell's per-scheduler makespan vector round-trips
// through JSON).
func FamilyRun(gen func(*rng.RNG) *graph.Instance, scheds []scheduler.Scheduler, n int, seed uint64, ro runner.Options) (*FamilyResult, error) {
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
			local, err := freshSchedulers(res.Schedulers)
			if err != nil {
				return nil, err
			}
			inst := gen(subs[k])
			out := scr.AcquireSchedule()
			defer scr.ReleaseSchedule(out)
			ms := make([]float64, len(local))
			for i, s := range local {
				if err := scheduler.ScheduleInto(s, inst, scr, out); err != nil {
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

// RobustnessRun computes the same result as Robustness under ro, one
// cell per jitter sample. The scheduler must be registry-instantiable so
// each worker re-plans with its own copy. ro also carries progress
// callbacks and a checkpoint store for resumable jitter sweeps (each
// cell is a (static, adaptive) makespan pair).
func RobustnessRun(inst *graph.Instance, s scheduler.Scheduler, sigma float64, n int, seed uint64, ro runner.Options) (*RobustnessResult, error) {
	nominal, err := s.Schedule(inst)
	if err != nil {
		return nil, err
	}
	res := &RobustnessResult{Scheduler: s.Name(), Nominal: nominal.Makespan()}
	subs := splitStreams(seed, n)
	cells, err := runner.MapState(n, ro, scheduler.NewScratch,
		func(k int, scr *scheduler.Scratch) (robustCell, error) {
			local, err := scheduler.New(s.Name())
			if err != nil {
				return robustCell{}, err
			}
			j := Jitter(inst, sigma, subs[k])
			m, err := Replay(j, nominal)
			if err != nil {
				return robustCell{}, err
			}
			re := scr.AcquireSchedule()
			defer scr.ReleaseSchedule(re)
			if err := scheduler.ScheduleInto(local, j, scr, re); err != nil {
				return robustCell{}, err
			}
			return robustCell{Static: m, Adaptive: re.Makespan()}, nil
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

// AppSpecificRun computes the same result as AppSpecific under ro: the
// benchmarking instances and the PISA pairs are both fanned out. Range
// merging uses min/max only, so the assembled perturbation space — and
// with it every PISA cell — is bit-identical to the sequential driver.
// The driver runs two sweeps — benchmarking, then PISA — against one
// checkpoint store by giving the PISA sweep a disjoint index window
// (runner.OffsetCheckpoint), so both phases of an interrupted block
// resume.
func AppSpecificRun(scheds []scheduler.Scheduler, opts AppSpecificOptions, ro runner.Options) (*AppSpecificResult, error) {
	n := len(scheds)
	res := &AppSpecificResult{
		Workflow:  opts.Workflow,
		CCR:       opts.CCR,
		Benchmark: make([]float64, n),
		Ratios:    make([][]float64, n),
		Instances: make([][]*graph.Instance, n),
	}
	for _, s := range scheds {
		res.Schedulers = append(res.Schedulers, s.Name())
	}
	for i := range res.Ratios {
		res.Ratios[i] = make([]float64, n)
		res.Instances[i] = make([]*graph.Instance, n)
		for j := range res.Ratios[i] {
			res.Ratios[i][j] = -1
		}
	}

	// Benchmarking row + observed weight ranges, one cell per instance.
	// This phase always runs unsharded and unleased: the merged min/max
	// ranges below parameterize every PISA cell's perturbation space, so
	// each shard (or coordinator worker) needs all of them to stay
	// bit-identical to the sequential reference. The cells are
	// deterministic, so the identical copies the shards store are
	// deduplicated by serialize.MergeCheckpoints (and by the
	// coordinator's commit dedup). A bench-cell failure is never routed
	// through OnCellError either — a missing range sample would silently
	// reshape every PISA cell, so it must abort this run instead.
	benchRO := ro
	benchRO.Shard = runner.ShardSpec{}
	benchRO.Include = nil
	benchRO.OnCellError = nil
	nBench := opts.BenchmarkInstances
	if nBench <= 0 {
		nBench = 20
	}
	subs := splitStreams(opts.Anneal.Seed^0xA99, nBench)
	benchCells, err := runner.Map(nBench, benchRO,
		func(k int) (appBenchCell, error) {
			local, err := freshSchedulers(res.Schedulers)
			if err != nil {
				return appBenchCell{}, err
			}
			inst := appInstance(opts.Workflow, opts.CCR, subs[k])
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
			ratios, err := MakespanRatioAgainstBest(inst, local)
			if err != nil {
				return appBenchCell{}, err
			}
			c.Ratios = make([]float64, len(local))
			for i, s := range local {
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
	// Its checkpoint window starts past the benchmarking sweep's cells so
	// one store serves both phases.
	if n < 2 {
		return res, nil
	}
	pisaRO := ro
	if pisaRO.Checkpoint != nil {
		pisaRO.Checkpoint = runner.OffsetCheckpoint(ro.Checkpoint, nBench)
	}
	// Include and OnCellError address cells in *store* index space (the
	// space leases and shard stores share), so the PISA phase — whose
	// Map-local cell k lives at store index k+nBench — translates both,
	// exactly mirroring the OffsetCheckpoint window above.
	if ro.Include != nil {
		pisaRO.Include = func(k int) bool { return ro.Include(k + nBench) }
	}
	if ro.OnCellError != nil {
		pisaRO.OnCellError = func(k int, err error) { ro.OnCellError(k+nBench, err) }
	}
	baseSeed := opts.Anneal.Seed
	pisaCells, err := runner.MapState(n*(n-1), pisaRO, scheduler.NewScratch,
		func(k int, scr *scheduler.Scratch) (pisaCell, error) {
			i, j := runner.OffDiagonal(k, n)
			base, err := scheduler.New(res.Schedulers[i])
			if err != nil {
				return pisaCell{}, err
			}
			target, err := scheduler.New(res.Schedulers[j])
			if err != nil {
				return pisaCell{}, err
			}
			ao := opts.Anneal
			ao.Seed = runner.CellSeed(baseSeed, k)
			ao.InitialInstance = func(rr *rng.RNG) *graph.Instance {
				return appInstance(opts.Workflow, opts.CCR, rr)
			}
			ao.Perturb = core.PerturbOptions{
				Step:              0.1,
				TaskCost:          taskRange,
				DepCost:           depRange,
				Speed:             speedRange,
				FixLinks:          true,
				FixStructure:      true,
				KeepPinnedWeights: true,
			}
			ao.Scratch = scr
			pr, err := core.Run(target, base, ao)
			if err != nil {
				return pisaCell{}, err
			}
			raw, err := serialize.MarshalInstance(pr.Best)
			if err != nil {
				return pisaCell{}, err
			}
			return pisaCell{Ratio: pr.BestRatio, Instance: raw}, nil
		})
	if err != nil {
		return nil, err
	}
	for k, c := range pisaCells {
		if len(c.Instance) == 0 {
			if pisaRO.Owns(k) && ro.OnCellError == nil {
				return nil, fmt.Errorf("experiments: cell %d has no instance", k)
			}
			continue // another shard's/lease's cell, or a reported failure
		}
		i, j := runner.OffDiagonal(k, n)
		inst, err := serialize.UnmarshalInstance(c.Instance)
		if err != nil {
			return nil, fmt.Errorf("experiments: cell (%d,%d): %w", i, j, err)
		}
		res.Ratios[i][j] = c.Ratio
		res.Instances[i][j] = inst
	}
	return res, nil
}

// SelectPortfolioParallel computes the same result as SelectPortfolio
// using up to workers goroutines (0 = GOMAXPROCS), one cell per smallest
// portfolio member. Cells are merged in first-member order with the same
// strict-improvement rule the sequential enumeration applies, so ties
// resolve identically.
func SelectPortfolioParallel(schedulers []string, ratios [][]float64, k, workers int) (*PortfolioResult, error) {
	n := len(schedulers)
	if k <= 0 || k > n {
		return nil, fmt.Errorf("experiments: portfolio size %d outside [1, %d]", k, n)
	}
	if len(ratios) != n {
		return nil, fmt.Errorf("experiments: ratio grid has %d rows for %d schedulers", len(ratios), n)
	}
	type candidate struct {
		Members []int
		Worst   float64
	}
	cells, err := runner.Map(n-k+1, runner.Options{Workers: workers}, func(j0 int) (candidate, error) {
		best := candidate{Worst: math.Inf(1)}
		subset := make([]int, k)
		subset[0] = j0
		var recurse func(start, depth int)
		recurse = func(start, depth int) {
			if depth == k {
				if worst := subsetWorstRatio(ratios, subset); worst < best.Worst {
					best.Members = append([]int(nil), subset...)
					best.Worst = worst
				}
				return
			}
			for j := start; j <= n-(k-depth); j++ {
				subset[depth] = j
				recurse(j+1, depth+1)
			}
		}
		recurse(j0+1, 1)
		return best, nil
	})
	if err != nil {
		return nil, err
	}
	best := candidate{Worst: math.Inf(1)}
	for _, c := range cells {
		if c.Worst < best.Worst {
			best = c
		}
	}
	res := &PortfolioResult{WorstRatio: best.Worst}
	res.Members = make([]string, k)
	for i, j := range best.Members {
		res.Members[i] = schedulers[j]
	}
	sort.Strings(res.Members)
	return res, nil
}
