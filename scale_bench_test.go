package saga

import (
	"os"
	"testing"
	"time"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// The scale-tier gate and benchmark: schedule throughput (task·node
// pairs per second under HEFT) and table memory on the 1k/5k/10k
// scale_layered instances. The 10k bit-identity check of the
// edge-sparse Tables against the dense reference lives beside that
// reference, in internal/graph (TestSparseTablesMatchDense10k).
// BENCH_scale.json records the measured numbers; `make bench-scale`
// (part of `make verify`) enforces the floors below.

// scaleGateSeed fixes the gate's instances: same seed, same instance,
// every host.
const scaleGateSeed = 1

func scaleInstance(tb testing.TB, name string) *graph.Instance {
	tb.Helper()
	insts, err := datasets.Dataset(name, 1, scaleGateSeed)
	if err != nil {
		tb.Fatal(err)
	}
	return insts[0]
}

// heftThroughput schedules inst under HEFT once and returns the
// task·node pairs scheduled per second together with the schedule.
func heftThroughput(tb testing.TB, inst *graph.Instance) (float64, *schedule.Schedule) {
	tb.Helper()
	s := mustSchedT(tb, "HEFT")
	start := time.Now()
	sch, err := s.Schedule(inst)
	elapsed := time.Since(start).Seconds()
	if err != nil {
		tb.Fatal(err)
	}
	pairs := float64(inst.Graph.NumTasks() * inst.Net.NumNodes())
	return pairs / elapsed, sch
}

// BenchmarkScaleHEFT is the measurement protocol behind
// BENCH_scale.json's throughput numbers: one full HEFT schedule of the
// pinned scale_layered instance per iteration, with the task·node
// throughput reported as a custom metric.
func BenchmarkScaleHEFT(b *testing.B) {
	for _, suffix := range []string{"1k", "5k", "10k"} {
		b.Run(suffix, func(b *testing.B) {
			inst := scaleInstance(b, "scale_layered_"+suffix)
			s := mustSched(b, "HEFT")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(inst); err != nil {
					b.Fatal(err)
				}
			}
			pairs := float64(inst.Graph.NumTasks() * inst.Net.NumNodes())
			b.ReportMetric(pairs*float64(b.N)/b.Elapsed().Seconds(), "tasknodes/s")
		})
	}
}

// TestScaleBenchGate enforces the BENCH_scale.json regression floors:
// HEFT throughput at each scale tier and edge-sparse table memory with
// no node-squared link storage. Opt in via
// SCALE_BENCH_GATE=1 (`make bench-scale`); the floors are a quarter of
// the committed measurement so host noise cannot flake the gate while a
// real regression (a reintroduced dense path, an accidental quadratic)
// still trips it.
func TestScaleBenchGate(t *testing.T) {
	if os.Getenv("SCALE_BENCH_GATE") == "" {
		t.Skip("timing gate; run via `make bench-scale` (SCALE_BENCH_GATE=1)")
	}
	// Floors in task·node pairs per second; measurement / 4 (see
	// BENCH_scale.json for the protocol and the measured values).
	floors := map[string]float64{
		"1k":  1_950_000,
		"5k":  1_650_000,
		"10k": 1_475_000,
	}
	for _, suffix := range []string{"1k", "5k", "10k"} {
		t.Run("throughput_"+suffix, func(t *testing.T) {
			inst := scaleInstance(t, "scale_layered_"+suffix)
			heftThroughput(t, inst) // warm: tables, scratch pools, page-in
			best := 0.0
			for round := 0; round < 3; round++ {
				tp, sch := heftThroughput(t, inst)
				if tp > best {
					best = tp
				}
				if round == 0 {
					if err := schedule.Validate(inst, sch); err != nil {
						t.Fatal(err)
					}
				}
			}
			t.Logf("scale_layered_%s: %.0f task·nodes/s (floor %.0f)", suffix, best, floors[suffix])
			if best < floors[suffix] {
				t.Fatalf("HEFT throughput %.0f task·nodes/s below floor %.0f — scale-tier regression",
					best, floors[suffix])
			}
		})
	}

	t.Run("table_memory_10k", func(t *testing.T) {
		inst := scaleInstance(t, "scale_layered_10k")
		var tab graph.Tables
		tab.Build(inst)
		tab.EnsureAvgComm()
		nT, nD := inst.Graph.NumTasks(), inst.Net.NumNodes()
		nE := inst.Graph.NumDeps()
		if got := tab.LinkExceptions(); got > 4*nD {
			t.Fatalf("link exceptions %d > 4·|D|=%d — link storage is not edge-sparse", got, 4*nD)
		}
		// The layout is O(|V| + |E| + |D|·|V|): exec tables dominate with
		// 2·|V|·|D| floats (Exec + its prefix sums); everything else is a
		// handful of |V|- or |E|-length vectors. 3× headroom on that
		// closed form — a node-squared term at these sizes would blow
		// through it immediately.
		bound := 8 * (3*nT*nD + 16*nT + 8*nE + 64*nD + 4096)
		if got := tab.MemoryBytes(); got > bound {
			t.Fatalf("Tables memory %d bytes exceeds the O(|V|+|E|+|D|·|V|) bound %d", got, bound)
		}
		t.Logf("scale_layered_10k tables: %d bytes, %d link exceptions", tab.MemoryBytes(), tab.LinkExceptions())
	})
}

// TestScaleTierSchedulesValid runs every registered scheduler on the
// layered and chain-bundle scale instances and checks each schedule with
// schedule.Validate — the 1k tier on every `go test`, the 10k tier with
// the gate. The scale generators draw zero-cost tasks, the input on
// which a timeline ordered by Start alone let FCP, FLB, OLB, MCT and
// FastestNode overlap tasks. BruteForce and SMT refuse instances this
// large; any other error fails the test.
func TestScaleTierSchedulesValid(t *testing.T) {
	tiers := []string{"1k"}
	if os.Getenv("SCALE_BENCH_GATE") != "" {
		tiers = append(tiers, "10k")
	}
	scr := scheduler.NewScratch()
	var out schedule.Schedule
	for _, tier := range tiers {
		for _, family := range []string{"scale_layered_", "scale_chains_"} {
			inst := scaleInstance(t, family+tier)
			for _, name := range scheduler.Names() {
				err := scheduler.ScheduleInto(mustSchedT(t, name), inst, scr, &out)
				if err != nil && (name == "BruteForce" || name == "SMT") {
					continue
				}
				if err == nil {
					err = schedule.Validate(inst, &out)
				}
				if err != nil {
					t.Errorf("%s on %s%s: %v", name, family, tier, err)
				}
			}
		}
	}
}

// mustSchedT is mustSched for plain tests (the bench helper insists on
// *testing.B).
func mustSchedT(tb testing.TB, name string) scheduler.Scheduler {
	tb.Helper()
	s, err := scheduler.New(name)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}
