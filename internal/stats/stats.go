// Package stats provides the small set of summary statistics the
// experiment drivers report: means, maxima, percentiles and five-number
// summaries for the makespan distributions of Figs 7 and 8.
//
// Every function is a pure fold over its input in index order — no
// sorting side effects on the caller's slice, no randomness — so
// summaries inherit the bit-for-bit determinism of the sweeps that feed
// them.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0-100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Summary is a five-number summary plus mean, the data behind a box plot.
type Summary struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		Min:    Min(xs),
		Q1:     Percentile(xs, 25),
		Median: Percentile(xs, 50),
		Q3:     Percentile(xs, 75),
		Max:    Max(xs),
		Mean:   Mean(xs),
		N:      len(xs),
	}
}
