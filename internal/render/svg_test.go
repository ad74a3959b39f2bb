package render

import (
	"strconv"
	"strings"
	"testing"

	"saga/internal/datasets"
	"saga/internal/scheduler"
)

func TestGanttSVGWellFormed(t *testing.T) {
	inst := datasets.Fig1Instance()
	s, err := scheduler.New("HEFT")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := scheduler.Schedule(s, inst)
	if err != nil {
		t.Fatal(err)
	}
	out := GanttSVG(inst, sch, SVGOptions{Title: "Fig 1 <HEFT>"})
	if !strings.HasPrefix(out, "<svg ") || !strings.HasSuffix(out, "</svg>\n") {
		t.Fatalf("not an SVG document:\n%.80s...", out)
	}
	// One rect per task (plus lanes and background).
	if got := strings.Count(out, "<title>"); got != inst.Graph.NumTasks() {
		t.Fatalf("task rect count = %d, want %d", got, inst.Graph.NumTasks())
	}
	// Title must be escaped.
	if strings.Contains(out, "<HEFT>") {
		t.Fatal("unescaped title in SVG")
	}
	if !strings.Contains(out, "&lt;HEFT&gt;") {
		t.Fatal("escaped title missing")
	}
	// One lane per node.
	if got := strings.Count(out, ">node "); got != inst.Net.NumNodes() {
		t.Fatalf("lane labels = %d, want %d", got, inst.Net.NumNodes())
	}
	// Balanced tags.
	if strings.Count(out, "<rect") == 0 || strings.Count(out, "<text") == 0 {
		t.Fatal("missing chart elements")
	}
}

func TestGanttSVGZeroMakespan(t *testing.T) {
	inst := datasets.Fig1Instance()
	s, _ := scheduler.New("HEFT")
	sch, _ := scheduler.Schedule(s, inst)
	for i := range sch.ByTask {
		sch.ByTask[i].Start, sch.ByTask[i].End = 0, 0
	}
	out := GanttSVG(inst, sch, SVGOptions{}) // must not divide by zero
	if !strings.Contains(out, "<svg") {
		t.Fatal("zero-makespan SVG broken")
	}
}

func TestHeatmapSVG(t *testing.T) {
	out := HeatmapSVG("grid & caption", []string{"r1", "r2"}, []string{"c1", "c2"},
		[][]float64{{-1, 2.5}, {7.0, 1.0}})
	if !strings.HasPrefix(out, "<svg ") {
		t.Fatal("not an SVG document")
	}
	if !strings.Contains(out, "grid &amp; caption") {
		t.Fatal("title not escaped")
	}
	// The blank diagonal cell renders gray, the capped cell saturates.
	if !strings.Contains(out, "#dddddd") {
		t.Fatal("blank cell color missing")
	}
	if !strings.Contains(out, "#ff0000") {
		t.Fatal("saturated cell color missing")
	}
	// Ratio 1 renders white-ish.
	if !strings.Contains(out, "#ffffff") {
		t.Fatal("ratio-1 cell not white")
	}
	if !strings.Contains(out, "&gt; 5.0") && !strings.Contains(out, "> 5.0") {
		t.Fatal("capped label missing")
	}
}

func TestHeatColorMonotone(t *testing.T) {
	// Redness (lower green/blue channels) must not decrease with ratio.
	prev := int64(256)
	for _, r := range []float64{1, 1.5, 2, 3, 4, 5, 10, 1e6} {
		c := heatColor(r)
		g, err := strconv.ParseInt(c[3:5], 16, 32)
		if err != nil {
			t.Fatalf("bad color %q: %v", c, err)
		}
		if g > prev {
			t.Fatalf("heat color not monotone at ratio %v: %s", r, c)
		}
		prev = g
	}
	if heatColor(1) != "#ffffff" || heatColor(5) != "#ff0000" {
		t.Fatalf("endpoint colors: %s, %s", heatColor(1), heatColor(5))
	}
}
