package runner

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestProgressPrinterRateAndETA(t *testing.T) {
	var out strings.Builder
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	cb := progressPrinter(&out, "fig4", now)

	cb(10, 100) // baseline: bare count, no rate yet
	clock = clock.Add(10 * time.Second)
	cb(30, 100) // 20 cells in 10s = 2 cells/s, 70 left → 35s
	clock = clock.Add(30 * time.Second)
	cb(70, 100) // 60 cells in 40s = 1.5 cells/s, 30 left → 20s
	clock = clock.Add(20 * time.Second)
	cb(100, 100)

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out.String())
	}
	if want := "fig4: 10/100 cells"; lines[0] != want {
		t.Fatalf("line 1 = %q, want %q", lines[0], want)
	}
	if want := "fig4: 30/100 cells (2.0 cells/s, ETA 35s)"; lines[1] != want {
		t.Fatalf("line 2 = %q, want %q", lines[1], want)
	}
	if want := "fig4: 70/100 cells (1.5 cells/s, ETA 20s)"; lines[2] != want {
		t.Fatalf("line 3 = %q, want %q", lines[2], want)
	}
	if want := "fig4: 100/100 cells (1.5 cells/s, done in 1m00s)"; lines[3] != want {
		t.Fatalf("line 4 = %q, want %q", lines[3], want)
	}
}

// TestProgressPrinterResumedSweep pins the checkpoint-resume behavior:
// the restored-cell burst the runner reports first must not pollute the
// computed-cell throughput.
func TestProgressPrinterResumedSweep(t *testing.T) {
	var out strings.Builder
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	cb := progressPrinter(&out, "fig4", now)

	cb(198, 210) // restored from store, before any compute
	clock = clock.Add(4 * time.Second)
	cb(202, 210) // 4 computed in 4s = 1 cell/s, 8 left → 8s

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if want := "fig4: 198/210 cells"; lines[0] != want {
		t.Fatalf("line 1 = %q, want %q", lines[0], want)
	}
	if want := "fig4: 202/210 cells (1.0 cells/s, ETA 8s)"; lines[1] != want {
		t.Fatalf("line 2 = %q, want %q (restored cells leaked into the rate?)", lines[1], want)
	}
}

func TestProgressPrinterZeroComputed(t *testing.T) {
	var out strings.Builder
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	cb := progressPrinter(&out, "x", now)
	cb(1, 3)
	clock = clock.Add(200 * time.Millisecond)
	cb(1, 3) // time passed, nothing computed: must not divide by zero or print NaN/Inf
	lines := out.String()
	if strings.Contains(lines, "NaN") || strings.Contains(lines, "Inf") {
		t.Fatalf("degenerate output: %q", lines)
	}
	if !strings.Contains(lines, "x: 1/3 cells (ETA --:--)") {
		t.Fatalf("zero-computed tick should print the --:-- placeholder, got %q", lines)
	}
}

// TestProgressPrinterNoRateYet pins the satellite fix: until a rate
// exists — cells computed past the baseline AND measurable elapsed
// time — the ETA prints as --:-- rather than NaN, +Inf, or a
// clock-resolution artifact. (Sub-resolution mid-sweep ticks are now
// absorbed by the rate limiter before the rate logic ever sees them;
// the zero-computed branch remains reachable and is pinned here.)
func TestProgressPrinterNoRateYet(t *testing.T) {
	var out strings.Builder
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	cb := progressPrinter(&out, "x", now)

	cb(5, 100) // baseline
	clock = clock.Add(10 * time.Second)
	cb(5, 100) // time passed, zero cells computed: no rate
	clock = clock.Add(10 * time.Second)
	cb(25, 100) // 20 cells over 20s: a real rate at last

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), out.String())
	}
	if want := "x: 5/100 cells"; lines[0] != want {
		t.Fatalf("line 1 = %q, want %q", lines[0], want)
	}
	if want := "x: 5/100 cells (ETA --:--)"; lines[1] != want {
		t.Fatalf("line 2 = %q, want %q", lines[1], want)
	}
	if want := "x: 25/100 cells (1.0 cells/s, ETA 1m15s)"; lines[2] != want {
		t.Fatalf("line 3 = %q, want %q", lines[2], want)
	}
}

// TestProgressPrinterRateLimited pins the scale-tier satellite: a sweep
// completing cells faster than 10/s must not print a line per cell.
// Only ticks ≥100ms after the last printed line survive; the baseline
// and the completion line always print.
func TestProgressPrinterRateLimited(t *testing.T) {
	var out strings.Builder
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	cb := progressPrinter(&out, "x", now)

	cb(0, 100) // baseline
	for i := 1; i <= 50; i++ {
		clock = clock.Add(10 * time.Millisecond)
		cb(i, 100) // 100 ticks/s: only every 10th may print
	}
	clock = clock.Add(100 * time.Millisecond)
	cb(100, 100) // completion always prints

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// Baseline + one line per elapsed 100ms window (5 over the 500ms of
	// ticks) + the completion line.
	if len(lines) != 7 {
		t.Fatalf("got %d lines, want 7 (is the limiter off?):\n%s", len(lines), out.String())
	}
	if want := "x: 0/100 cells"; lines[0] != want {
		t.Fatalf("baseline = %q, want %q", lines[0], want)
	}
	for i, line := range lines[1:6] {
		if want := fmt.Sprintf("x: %d/100 cells", (i+1)*10); !strings.HasPrefix(line, want) {
			t.Fatalf("surviving line %d = %q, want prefix %q", i+1, line, want)
		}
	}
	last := lines[6]
	if !strings.Contains(last, "100/100 cells") || !strings.Contains(last, "done in") {
		t.Fatalf("final line %q does not report completion", last)
	}
}

// TestProgressPrinterCompletionWithoutRate pins the final line when the
// whole sweep lands inside the clock's resolution: completion is still
// reported, just without an invented throughput figure.
func TestProgressPrinterCompletionWithoutRate(t *testing.T) {
	var out strings.Builder
	now := func() time.Time { return time.Unix(1000, 0) }
	cb := progressPrinter(&out, "x", now)
	cb(0, 2)
	cb(2, 2)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if want := "x: 2/2 cells (done in 0s)"; lines[len(lines)-1] != want {
		t.Fatalf("final line = %q, want %q", lines[len(lines)-1], want)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0s"},
		{0.2, "1s"}, // rounds up: never "0s" while work remains
		{42, "42s"},
		{185, "3m05s"},
		{7620, "2h07m"},
	}
	for _, c := range cases {
		if got := formatDuration(c.in); got != c.want {
			t.Errorf("formatDuration(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestProgressPrinterThroughRunner wires the printer into a real Map
// sweep: every line must parse, the baseline must come first, and the
// final line must report completion. The rate limiter makes the exact
// line count timing-dependent (fast cells are absorbed), so only the
// bounds are pinned.
func TestProgressPrinterThroughRunner(t *testing.T) {
	var out strings.Builder
	_, err := Map(16, Options{Workers: 4, Progress: ProgressPrinter(&out, "sweep")}, func(k int) (int, error) {
		return k, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 || len(lines) > 17 {
		t.Fatalf("got %d progress lines, want 2-17 (baseline + rate-limited cells + completion):\n%s",
			len(lines), out.String())
	}
	if lines[0] != "sweep: 0/16 cells" {
		t.Fatalf("baseline line = %q, want the sweep's starting position", lines[0])
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, "sweep: ") || !strings.Contains(line, "cells") {
			t.Fatalf("line %d malformed: %q", i, line)
		}
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, "16/16 cells") || !strings.Contains(last, "done in") {
		t.Fatalf("final line %q does not report completion", last)
	}
}
