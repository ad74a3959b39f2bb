package runner

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// LeaseProgress pins progress totals for dynamically leased work: a
// coordinator worker (internal/coord) runs one small Map per lease, but
// its operator wants one monotonic count against the sweep's full cell
// total — not a fresh 0/leaseSize readout per lease, and no
// double-counting of cells a lease loads from its store instead of
// computing.
//
// Construct one per worker session with the sweep's total, then pass a
// fresh Sweep() callback into every Map run (every lease). Each inner
// sweep's first callback is its baseline — Map guarantees the first
// call reports the load/restriction state before any cell computes —
// and only cells completed past that baseline advance the pinned
// counter.
type LeaseProgress struct {
	mu    sync.Mutex
	total int
	done  int
	p     func(done, total int)
}

// NewLeaseProgress wraps p — typically a ProgressPrinter — so every
// report carries the pinned total and the cumulative count of cells
// this worker computed across all its leases.
func NewLeaseProgress(total int, p func(done, total int)) *LeaseProgress {
	return &LeaseProgress{total: total, p: p}
}

// Sweep returns a Progress callback for one inner sweep (one lease).
// Do not share one callback across sweeps: the baseline is per-sweep.
func (lp *LeaseProgress) Sweep() func(done, total int) {
	last := -1 // no baseline yet
	return func(done, _ int) {
		lp.mu.Lock()
		defer lp.mu.Unlock()
		if last >= 0 {
			lp.done += done - last
		}
		last = done
		lp.p(lp.done, lp.total)
	}
}

// ProgressPrinter returns a Progress callback that reports each
// completed cell to w with completion count, throughput, and a
// wall-clock ETA:
//
//	fig4: 120/380 cells (14.2 cells/s, ETA 18s)
//
// The first callback only establishes the measurement baseline and
// prints the bare count — for a resumed sweep that first call reports
// the cells loaded from the checkpoint store in one burst, so folding
// it into the rate would wreck the ETA. Every later line therefore
// reports the throughput of the cells this process actually computed.
// One printer serves one sweep: a caller running several makes one
// each. cmd/figures and cmd/saga share this one implementation, so
// every CLI reports progress identically.
func ProgressPrinter(w io.Writer, label string) func(done, total int) {
	return progressPrinter(w, label, time.Now)
}

// progressPrinter is ProgressPrinter with an injectable clock for
// tests.
//
// A rate exists only once this process has both computed at least one
// cell past the baseline and let measurable wall clock pass
// (minRateElapsed); until then the line carries "ETA --:--" instead of
// the NaN, +Inf, or astronomically scaled figures that a zero-cell or
// zero-elapsed division would print (cells routinely land within the
// clock's resolution, and a resumed sweep's first computed cell can
// tick before the clock does).
//
// Output is rate-limited to one line per maxLineInterval: a scale-tier
// sweep completes thousands of cheap cells per second, and printing
// each one turns the progress report into megabytes of scrollback (and
// a measurable cost when the writer is a terminal or a log shipper).
// Two kinds of line bypass the limiter — the baseline, because it
// anchors everything a reader interprets after it, and completion lines
// (done ≥ total), because the final state of a sweep must always land.
func progressPrinter(w io.Writer, label string, now func() time.Time) func(done, total int) {
	const minRateElapsed = 1e-6 // seconds; below this the clock hasn't meaningfully ticked
	const maxLineInterval = 100 * time.Millisecond
	base := 0
	var baseT, lastPrint time.Time
	baseSet := false
	return func(done, total int) {
		if !baseSet {
			base, baseT, baseSet = done, now(), true
			lastPrint = baseT
			fmt.Fprintf(w, "%s: %d/%d cells\n", label, done, total)
			return
		}
		t := now()
		if done < total && t.Sub(lastPrint) < maxLineInterval {
			return // rate-limited; the next surviving line carries the count
		}
		lastPrint = t
		elapsed := t.Sub(baseT).Seconds()
		computed := done - base
		haveRate := computed > 0 && elapsed >= minRateElapsed
		if done >= total {
			if !haveRate {
				fmt.Fprintf(w, "%s: %d/%d cells (done in %s)\n",
					label, done, total, formatDuration(math.Max(elapsed, 0)))
				return
			}
			fmt.Fprintf(w, "%s: %d/%d cells (%.1f cells/s, done in %s)\n",
				label, done, total, float64(computed)/elapsed, formatDuration(elapsed))
			return
		}
		if !haveRate {
			fmt.Fprintf(w, "%s: %d/%d cells (ETA --:--)\n", label, done, total)
			return
		}
		rate := float64(computed) / elapsed
		eta := float64(total-done) / rate
		if math.IsNaN(eta) || math.IsInf(eta, 0) {
			fmt.Fprintf(w, "%s: %d/%d cells (ETA --:--)\n", label, done, total)
			return
		}
		fmt.Fprintf(w, "%s: %d/%d cells (%.1f cells/s, ETA %s)\n",
			label, done, total, rate, formatDuration(eta))
	}
}

// formatDuration renders seconds as a compact h/m/s duration ("42s",
// "3m05s", "2h07m"). Sub-second remainders round up so an ETA never
// reads "0s" while work remains.
func formatDuration(seconds float64) string {
	s := int(seconds + 0.999999)
	if s < 0 {
		s = 0
	}
	switch {
	case s >= 3600:
		return fmt.Sprintf("%dh%02dm", s/3600, (s%3600)/60)
	case s >= 60:
		return fmt.Sprintf("%dm%02ds", s/60, s%60)
	default:
		return fmt.Sprintf("%ds", s)
	}
}
