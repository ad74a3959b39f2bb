// Package experiments implements the paper's evaluation drivers: the
// Fig 2 benchmarking grid, the Fig 4 pairwise PISA heatmap, the Fig 7/8
// family studies, robustness under cost jitter, and the Section VII
// application-specific benchmarking+PISA grids (Figs 10-19). Each driver
// returns plain data plus labels; package render turns them into the
// text figures.
//
// Every sweep has one typed definition (distributed.go): its checks,
// fingerprint, cell count and compute function, shared by `figures`,
// `saga worker`, `saga merge`, the coordinator hub and the daemon. The
// drivers behind them are unexported and built on runner.Map (see
// parallel.go): their results are bit-identical for any worker count,
// which determinism_test.go proves against sequential oracles kept only
// in that test file. BenchmarkingRun stays exported for `saga
// benchmark`, whose datasets and roster are free-form, and for bench/.
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

// BenchmarkResult is the Fig 2 grid BenchmarkingRun and the fig2 sweep
// compute.
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
// instance's tables are prepared once on scr and every scheduler runs on
// it, so the roster shares one table build, one avg-comm fill, the rank
// memo and the builder arenas; scratch state never reaches a result, so
// the makespans are those of the one-shot scheduler.Schedule(s, inst).
func rosterMakespans(inst *graph.Instance, scheds []scheduler.Scheduler, scr *scheduler.Scratch, out *schedule.Schedule, dst []float64) (float64, error) {
	scr.Prepare(inst)
	best := math.Inf(1)
	for i, s := range scheds {
		if err := s.ScheduleScratch(inst, scr, out); err != nil {
			return 0, fmt.Errorf("%s: %w", s.Name(), err)
		}
		dst[i] = out.Makespan()
		if dst[i] < best {
			best = dst[i]
		}
	}
	return best, nil
}

// benchmarkDataset is one cell of BenchmarkingRun: every scheduler on
// the n instances of dataset ds, summarized per scheduler over the
// instances' makespan ratios against the best scheduler. It owns one
// scratch and one schedule for the whole cell. A scheduler that fails on
// an instance (none of the 15 experimental algorithms do) fails the cell.
func benchmarkDataset(ds string, scheds []scheduler.Scheduler, n int, seed uint64) (map[string]BenchmarkCell, error) {
	instances, err := datasets.Dataset(ds, n, seed)
	if err != nil {
		return nil, err
	}
	scr := scheduler.NewScratch()
	var out schedule.Schedule
	makespans := make([]float64, len(scheds))
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
	cells := make(map[string]BenchmarkCell, len(scheds))
	for i, s := range scheds {
		cells[s.Name()] = BenchmarkCell{
			Dataset:   ds,
			Scheduler: s.Name(),
			Max:       stats.Max(ratios[i]),
			Mean:      stats.Mean(ratios[i]),
			P75:       stats.Percentile(ratios[i], 75),
		}
	}
	return cells, nil
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
