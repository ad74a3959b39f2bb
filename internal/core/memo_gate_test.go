package core

import (
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"saga/internal/datasets"
)

// TestPISAIterationMemoizationGate is the enforced (not merely
// measured) form of BenchmarkPISAIteration: the incremental inner loop
// — in-place perturbations, delta table patches, and rank memoization
// across the scheduler pair — must beat the copy-and-rebuild,
// cache-disabled reference by at least minIterationSpeedup on the
// network-heavy scales, and its steady state must stay allocation-free.
// The measured margin was ~2× when the floor was set (EXPERIMENTS.md,
// "The PISA inner-loop gates"), so 1.3× tolerates a noisy shared-VM
// host without letting a real regression through.
//
// Timing gates do not belong in plain `go test ./...`; `make
// bench-pisa` (part of `make verify`) opts in via PISA_BENCH_GATE=1.
//
// Each side is measured as the best of three rounds: on a loaded or
// shared host a single testing.Benchmark round can catch a scheduling
// hiccup on either side and flake the ratio; the minimum across rounds
// approximates the undisturbed cost, which is what the gate is about.
func TestPISAIterationMemoizationGate(t *testing.T) {
	if os.Getenv("PISA_BENCH_GATE") == "" {
		t.Skip("timing gate; run via `make bench-pisa` (PISA_BENCH_GATE=1)")
	}
	const minIterationSpeedup = 1.3
	insts := pisaBenchInstances()
	for _, scale := range []string{"fog48", "cloud"} {
		inst := insts[scale]
		inc := bestOfRounds(3, func(b *testing.B) { runIncrementalIteration(b, inst) })
		ref := bestOfRounds(3, func(b *testing.B) { runReferenceIteration(b, inst) })
		if inc.NsPerOp() <= 0 || ref.NsPerOp() <= 0 {
			t.Fatalf("%s: degenerate measurement (inc=%v, ref=%v)", scale, inc, ref)
		}
		ratio := float64(ref.NsPerOp()) / float64(inc.NsPerOp())
		t.Logf("%s: incremental %d ns/op, reference %d ns/op — %.2fx", scale, inc.NsPerOp(), ref.NsPerOp(), ratio)
		if ratio < minIterationSpeedup {
			t.Errorf("%s: incremental iteration only %.2fx faster than the reference; gate is %.1fx",
				scale, ratio, minIterationSpeedup)
		}
		if allocs := inc.AllocsPerOp(); allocs != 0 {
			t.Errorf("%s: incremental iteration allocates %d/op once warm; want 0", scale, allocs)
		}
	}
}

// bestOfRounds runs a benchmark function n times and returns the round
// with the lowest ns/op.
func bestOfRounds(n int, f func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(f)
	for round := 1; round < n; round++ {
		if r := testing.Benchmark(f); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// TestPISAParallelSpeedupGate enforces that intra-cell parallelism
// actually buys wall-clock on a multi-core host: full Run at the
// chain_500x2-equivalent budget with Workers=w (w = min(cores, 4), two
// restarts per worker) must beat sequential Run by 1 + (w-1)/5 — 1.2×
// on 2 cores, where this host measures 1.3–1.7× and perfect scaling
// would be 2×, so host noise cannot reach the floor while a build that
// ignores Workers (ratio ≈ 1.0) still fails.
//
// The ratio gated is the median over parallelGatePairs back-to-back
// sequential/parallel pairs on the same seeds. Pairing puts both sides
// of each ratio in the same phase of a shared host's speed drift, and
// the median discards the pairs a hiccup landed in; the earlier
// best-of-three of each side separately against 1.5× failed about one
// run in four on 2 cores.
//
// On a single-core host the comparison is physically meaningless — the
// chains time-slice one core and the parallel path can only add
// overhead — so the gate skips with an explicit log; byte-identity at
// every worker count is enforced unconditionally by parallel_test.go
// regardless of core count.
func TestPISAParallelSpeedupGate(t *testing.T) {
	if os.Getenv("PISA_BENCH_GATE") == "" {
		t.Skip("timing gate; run via `make bench-pisa` (PISA_BENCH_GATE=1)")
	}
	workers := min(runtime.GOMAXPROCS(0), 4)
	if workers < 2 {
		t.Skipf("single-core host (GOMAXPROCS=%d): parallel wall-clock speedup is unmeasurable here; determinism is still gated by parallel_test.go", workers)
	}
	const (
		parallelGatePairs = 7
		runsPerSide       = 60 // ~0.25 s sequential at 2 workers
	)
	minParallelSpeedup := 1 + float64(workers-1)/5
	opts := DefaultOptions()
	opts.MaxIters = 500
	opts.Restarts = 2 * workers // enough chains to keep every worker busy
	opts.InitialInstance = datasets.InitialPISAInstance
	target, baseline := mustSched(t, "HEFT"), mustSched(t, "CPoP")
	wall := func(w int) time.Duration {
		o := opts
		o.Workers = w
		start := time.Now()
		for i := 0; i < runsPerSide; i++ {
			o.Seed = uint64(i + 1)
			if _, err := Run(target, baseline, o); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	wall(workers) // warm caches and the scheduler pair once, untimed
	ratios := make([]float64, parallelGatePairs)
	for i := range ratios {
		seq, par := wall(1), wall(workers)
		ratios[i] = seq.Seconds() / par.Seconds()
		t.Logf("pair %d: run/chain_500x%d sequential %v, workers=%d %v — %.2fx",
			i, opts.Restarts, seq/runsPerSide, workers, par/runsPerSide, ratios[i])
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	t.Logf("median of %d pairs: %.2fx (min %.2fx, max %.2fx)", len(ratios), median, ratios[0], ratios[len(ratios)-1])
	if median < minParallelSpeedup {
		t.Errorf("parallel Run only %.2fx faster than sequential with %d workers (median of %d pairs); gate is %.2fx",
			median, workers, len(ratios), minParallelSpeedup)
	}
}
