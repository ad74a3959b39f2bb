package main

import (
	"math"
	"sort"
	"time"
)

// result is what one run of one workload measured. Times are seconds.
type result struct {
	attempted, failed int
	work              float64   // units of work completed by verified operations
	wall              float64   // timed wall clock those operations took
	ops               []float64 // wall clock of each verified operation
	slices            []slice   // the timed window, cut up (see endToEnd)
	host              *hostSpeed
	setup             []float64 // wall clock of each set-up repetition
	cpu               float64   // user + system time of every child of the timed part
	rssKB             int64     // largest peak resident set among those children
	failures          []string  // first few failure reasons, for the report
	serve             *serveStats
}

// slice is one stretch of the timed window between two calibration
// kernel runs: the rate at which verified work was completed in it and
// the wall clock of a typical operation in it, both normalised by the
// host-speed factor of the stretch (calib.go). A sweep's slice is one
// child invocation; a serve run's is sliceLen of the closed loop, with
// its median request.
type slice struct{ rate, op float64 }

// fail records one failed operation.
func (r *result) fail(reason string) {
	r.attempted++
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, reason)
	}
}

// ok records one verified operation of a sweep workload, which ran
// while the host was factor times slower than the calibration reference.
func (r *result) ok(wall time.Duration, factor, work float64) {
	r.attempted++
	r.work += work
	r.wall += wall.Seconds()
	r.ops = append(r.ops, wall.Seconds())
	norm := wall.Seconds() / factor
	r.slices = append(r.slices, slice{rate: work / norm, op: norm})
}

// account adds a finished child's resource use.
func (r *result) account(p proc) {
	r.cpu += p.cpu.Seconds()
	if p.rssKB > r.rssKB {
		r.rssKB = p.rssKB
	}
}

// endToEnd maps a result to the end-to-end metrics BENCHMARK.json
// declares. Every workload reports all three, each a median over
// host-normalised stretches: the slices of the window, or the set-up
// repetitions.
func (r *result) endToEnd() map[string]float64 {
	rates := make([]float64, len(r.slices))
	ops := make([]float64, len(r.slices))
	for i, s := range r.slices {
		rates[i], ops[i] = s.rate, s.op
	}
	return map[string]float64{
		"work_per_s": median(rates),
		"op_ms":      median(ops) * 1e3,
		"setup_s":    median(r.setup),
	}
}

// tailQuantile is the highest of p99, p90 and p75 that a sample of n
// operations supports, for the per-layer cmd.op_tail_ms. A serve run has
// thousands of requests and reports p99; a sweep run has a handful of
// invocations, whose p99 would be the single slowest one, and reports
// p75.
func tailQuantile(n int) float64 {
	switch {
	case n >= 1000:
		return 0.99
	case n >= 100:
		return 0.90
	}
	return 0.75
}

// quantile is the nearest-rank quantile of an ascending slice: the
// smallest value with at least a share q of the sample at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// cv is the coefficient of variation: standard deviation over mean.
func cv(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := mean(v)
	ss := 0.0
	for _, x := range v {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(v)-1)) / m
}
