// Package experiments implements the paper's evaluation drivers: the
// Fig 2 benchmarking grid, the Fig 4 pairwise PISA heatmap, the Fig 7/8
// family studies, and the Section VII application-specific
// benchmarking+PISA grids (Figs 10-19). Each driver returns plain data
// plus labels; package render turns them into the text figures.
//
// Every driver has a parallel counterpart built on runner.Map (see
// parallel.go) whose results are bit-identical to the sequential
// reference for any worker count, and the checkpointable sweeps are
// registered as distributed, shardable jobs in NewSweep (see
// distributed.go) — the shared identity behind `figures -shard`,
// `saga worker`, and `saga merge`.
package experiments

import (
	"fmt"
	"math"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	"saga/internal/stats"
)

// BenchmarkCell summarizes one (dataset, scheduler) cell of Fig 2: the
// distribution of the scheduler's makespan ratios against the best of all
// schedulers over the dataset's instances.
type BenchmarkCell struct {
	Dataset   string
	Scheduler string
	// Max, Mean and P75 summarize the per-instance makespan ratios (the
	// paper's gradient cells show the distribution; its color scale tops
	// out at the max).
	Max, Mean, P75 float64
}

// BenchmarkResult is the Fig 2 grid.
type BenchmarkResult struct {
	Datasets   []string
	Schedulers []string
	Cells      map[string]map[string]BenchmarkCell // dataset → scheduler → cell
}

// MaxGrid returns the max-ratio matrix indexed [dataset][scheduler],
// ready for render.Grid.
func (r *BenchmarkResult) MaxGrid() [][]float64 {
	out := make([][]float64, len(r.Datasets))
	for i, d := range r.Datasets {
		out[i] = make([]float64, len(r.Schedulers))
		for j, s := range r.Schedulers {
			out[i][j] = r.Cells[d][s].Max
		}
	}
	return out
}

// rosterMakespans runs every scheduler of the roster on inst and stores
// their makespans in dst (len(scheds)), returning the smallest. The
// instance's tables are prepared once on scr and every scheduler goes
// through scheduler.ScheduleInto, so the roster shares one table build,
// one avg-comm fill, the rank memo and the builder arenas; scratch state
// never reaches a result, so the makespans are those of s.Schedule(inst).
func rosterMakespans(inst *graph.Instance, scheds []scheduler.Scheduler, scr *scheduler.Scratch, out *schedule.Schedule, dst []float64) (float64, error) {
	scr.Prepare(inst)
	best := math.Inf(1)
	for i, s := range scheds {
		if err := scheduler.ScheduleInto(s, inst, scr, out); err != nil {
			return 0, fmt.Errorf("%s: %w", s.Name(), err)
		}
		dst[i] = out.Makespan()
		if dst[i] < best {
			best = dst[i]
		}
	}
	return best, nil
}

// Benchmarking reproduces Fig 2: run every scheduler on n instances of
// each named dataset and record, per instance, the scheduler's makespan
// ratio against the minimum makespan any scheduler achieved on that
// instance. It is the cell function of BenchmarkingRun and owns one
// scratch and one schedule for the whole call. A scheduler that fails on
// an instance (none of the 15 experimental algorithms do) fails the call.
func Benchmarking(datasetNames []string, scheds []scheduler.Scheduler, n int, seed uint64) (*BenchmarkResult, error) {
	res := &BenchmarkResult{
		Datasets: datasetNames,
		Cells:    map[string]map[string]BenchmarkCell{},
	}
	for _, s := range scheds {
		res.Schedulers = append(res.Schedulers, s.Name())
	}
	scr := scheduler.NewScratch()
	var out schedule.Schedule
	makespans := make([]float64, len(scheds))
	for _, ds := range datasetNames {
		instances, err := datasets.Dataset(ds, n, seed)
		if err != nil {
			return nil, err
		}
		ratios := make([][]float64, len(scheds))
		for _, inst := range instances {
			best, err := rosterMakespans(inst, scheds, scr, &out, makespans)
			if err != nil {
				return nil, fmt.Errorf("experiments: dataset %s: %w", ds, err)
			}
			if best == 0 {
				continue
			}
			for i, m := range makespans {
				ratios[i] = append(ratios[i], m/best)
			}
		}
		res.Cells[ds] = map[string]BenchmarkCell{}
		for i, s := range scheds {
			res.Cells[ds][s.Name()] = BenchmarkCell{
				Dataset:   ds,
				Scheduler: s.Name(),
				Max:       stats.Max(ratios[i]),
				Mean:      stats.Mean(ratios[i]),
				P75:       stats.Percentile(ratios[i], 75),
			}
		}
	}
	return res, nil
}

// MakespanRatioAgainstBest returns the makespan ratio of each scheduler
// against the best scheduler on the single instance — the per-instance
// quantity Fig 2 aggregates.
func MakespanRatioAgainstBest(inst *graph.Instance, scheds []scheduler.Scheduler) (map[string]float64, error) {
	var out schedule.Schedule
	makespans := make([]float64, len(scheds))
	best, err := rosterMakespans(inst, scheds, scheduler.NewScratch(), &out, makespans)
	if err != nil {
		return nil, err
	}
	ratios := make(map[string]float64, len(scheds))
	for i, s := range scheds {
		if best == 0 {
			ratios[s.Name()] = 1
		} else {
			ratios[s.Name()] = makespans[i] / best
		}
	}
	return ratios, nil
}
