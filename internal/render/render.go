// Package render draws ASCII Gantt charts of schedules (the paper's Fig
// 1c, 3d-g, 5b/d, 6b/d) and the heatmap-style grids of Figs 2, 4 and
// 10-19. It substitutes plain-text rendering for the paper's matplotlib
// figures; the numbers are identical (DESIGN.md, substitution 5).
//
// Rendering is a pure function of its inputs — identical results
// produce byte-identical text and SVG — which is what lets the
// determinism suites diff whole figures.
package render

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"saga/internal/graph"
	"saga/internal/schedule"
)

// Gantt renders the schedule as an ASCII chart, one row per node, width
// columns wide. Task names are drawn inside their execution intervals;
// intervals too narrow for a name show '#'.
func Gantt(inst *graph.Instance, s *schedule.Schedule, width int) string {
	if width < 20 {
		width = 20
	}
	makespan := s.Makespan()
	if makespan == 0 {
		makespan = 1
	}
	scale := float64(width) / makespan

	perNode := make([][]schedule.Assignment, s.NumNodes)
	for _, a := range s.Assignments() {
		perNode[a.Node] = append(perNode[a.Node], a)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "makespan = %.4f\n", s.Makespan())
	for v := 0; v < s.NumNodes; v++ {
		row := []byte(strings.Repeat(".", width))
		for _, a := range perNode[v] {
			lo := int(math.Round(a.Start * scale))
			hi := int(math.Round(a.End * scale))
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			name := inst.Graph.Tasks[a.Task].Name
			for i := lo; i < hi && i < width; i++ {
				row[i] = '#'
			}
			if hi-lo >= len(name)+2 {
				copy(row[lo+1:], name)
			}
		}
		fmt.Fprintf(&b, "node %2d |%s|\n", v, row)
	}
	return b.String()
}

// Cell formats a makespan ratio the way the paper's heatmaps do: ">1000"
// for enormous ratios, "> 5.0" for ratios above the color scale, and a
// two-decimal value otherwise.
func Cell(ratio float64) string {
	switch {
	case math.IsInf(ratio, 1) || ratio > 1000:
		return ">1000"
	case ratio > 5:
		return "> 5.0"
	default:
		return fmt.Sprintf("%5.2f", ratio)
	}
}

// Grid renders a labelled matrix of makespan ratios: one row per rowLabel
// and one column per colLabel. Negative values render as blanks (used
// for the paper's empty diagonal cells).
func Grid(title string, rowLabels, colLabels []string, values [][]float64) string {
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	rowWidth := 0
	for _, l := range rowLabels {
		if len(l) > rowWidth {
			rowWidth = len(l)
		}
	}
	colWidth := 5
	for _, l := range colLabels {
		if len(l) > colWidth {
			colWidth = len(l)
		}
	}
	fmt.Fprintf(&b, "%*s", rowWidth, "")
	for _, l := range colLabels {
		fmt.Fprintf(&b, "  %*s", colWidth, l)
	}
	b.WriteByte('\n')
	for i, rl := range rowLabels {
		fmt.Fprintf(&b, "%*s", rowWidth, rl)
		for j := range colLabels {
			v := values[i][j]
			if v < 0 {
				fmt.Fprintf(&b, "  %*s", colWidth, "")
				continue
			}
			fmt.Fprintf(&b, "  %*s", colWidth, Cell(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Histogram renders a vertical-bar text histogram of the values with the
// given number of bins — the stand-in for the paper's Fig 7b/8b box
// plots. It also prints min/median/max.
func Histogram(label string, values []float64, bins int) string {
	if len(values) == 0 {
		return label + ": (no data)\n"
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	lo, hi := sorted[0], sorted[len(sorted)-1]
	if bins < 1 {
		bins = 10
	}
	counts := make([]int, bins)
	span := hi - lo
	if span == 0 {
		span = 1
	}
	for _, v := range sorted {
		i := int(float64(bins) * (v - lo) / span)
		if i >= bins {
			i = bins - 1
		}
		counts[i]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	med := sorted[len(sorted)/2]
	fmt.Fprintf(&b, "%s: n=%d min=%.3f median=%.3f max=%.3f\n", label, len(sorted), lo, med, hi)
	for i, c := range counts {
		binLo := lo + span*float64(i)/float64(bins)
		binHi := lo + span*float64(i+1)/float64(bins)
		bar := ""
		if maxCount > 0 {
			bar = strings.Repeat("*", int(math.Round(40*float64(c)/float64(maxCount))))
		}
		fmt.Fprintf(&b, "  [%8.2f, %8.2f) %5d %s\n", binLo, binHi, c, bar)
	}
	return b.String()
}
