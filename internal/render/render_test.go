package render

import (
	"math"
	"strings"
	"testing"

	"saga/internal/datasets"
	"saga/internal/scheduler"
	_ "saga/internal/schedulers"
)

func TestGanttContainsTaskNames(t *testing.T) {
	inst := datasets.Fig1Instance()
	s, err := scheduler.New("HEFT")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := scheduler.Schedule(s, inst)
	if err != nil {
		t.Fatal(err)
	}
	out := Gantt(inst, sch, 60)
	for _, name := range []string{"t1", "t2", "t3", "t4"} {
		if !strings.Contains(out, name) {
			t.Errorf("gantt missing task %s:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "makespan = 4.2500") {
		t.Errorf("gantt missing makespan header:\n%s", out)
	}
	// One row per node plus the header.
	if got := strings.Count(out, "\n"); got != inst.Net.NumNodes()+1 {
		t.Errorf("gantt has %d lines, want %d", got, inst.Net.NumNodes()+1)
	}
}

func TestGanttTinyWidthClamped(t *testing.T) {
	inst := datasets.Fig1Instance()
	s, _ := scheduler.New("HEFT")
	sch, _ := scheduler.Schedule(s, inst)
	out := Gantt(inst, sch, 1) // must clamp, not panic
	if len(out) == 0 {
		t.Fatal("empty gantt")
	}
}

func TestCellFormatting(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1.0, " 1.00"},
		{4.34, " 4.34"},
		{5.01, "> 5.0"},
		{1234, ">1000"},
		{math.Inf(1), ">1000"},
	}
	for _, c := range cases {
		if got := Cell(c.in); got != c.want {
			t.Errorf("Cell(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestGridRendersLabelsAndBlanks(t *testing.T) {
	out := Grid("title", []string{"rowA", "b"}, []string{"c1", "column2"},
		[][]float64{{1.5, -1}, {6.2, 1}})
	if !strings.Contains(out, "title") || !strings.Contains(out, "rowA") || !strings.Contains(out, "column2") {
		t.Fatalf("grid missing labels:\n%s", out)
	}
	if !strings.Contains(out, "> 5.0") {
		t.Fatalf("grid missing capped cell:\n%s", out)
	}
	if strings.Contains(out, "-1") {
		t.Fatalf("grid rendered the blank sentinel:\n%s", out)
	}
}

func TestHistogram(t *testing.T) {
	out := Histogram("lbl", []float64{1, 2, 2, 3, 10}, 3)
	if !strings.Contains(out, "lbl") || !strings.Contains(out, "n=5") {
		t.Fatalf("histogram header wrong:\n%s", out)
	}
	if !strings.Contains(out, "median=2.000") {
		t.Fatalf("histogram median wrong:\n%s", out)
	}
	if strings.Count(out, "\n") != 4 { // header + 3 bins
		t.Fatalf("histogram bin count wrong:\n%s", out)
	}
}

func TestHistogramEmpty(t *testing.T) {
	if out := Histogram("x", nil, 5); !strings.Contains(out, "no data") {
		t.Fatalf("empty histogram = %q", out)
	}
}

func TestHistogramConstantValues(t *testing.T) {
	out := Histogram("const", []float64{4, 4, 4}, 4)
	if !strings.Contains(out, "n=3") {
		t.Fatalf("constant histogram:\n%s", out)
	}
}
