package saga

import (
	"fmt"
	"os"
	"testing"
	"time"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	"saga/internal/sim"
)

// The scale-tier gate: schedule throughput (task·node pairs per second
// under HEFT) and table memory on the 1k/5k/10k scale_layered
// instances. The 10k bit-identity check of the edge-sparse Tables
// against the dense reference lives beside that reference, in
// internal/graph (TestSparseTablesMatchDense10k). EXPERIMENTS.md
// ("Scale tier") records the measured numbers; `make bench-scale` (part
// of `make verify`) enforces the floors below. The benchmark ledger
// measures the same schedules as schedulers.HEFT_10k_ms.

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
	sch, err := scheduler.Schedule(s, inst)
	elapsed := time.Since(start).Seconds()
	if err != nil {
		tb.Fatal(err)
	}
	pairs := float64(inst.Graph.NumTasks() * inst.Net.NumNodes())
	return pairs / elapsed, sch
}

// TestScaleBenchGate enforces the scale tier's regression floors: HEFT
// throughput at each scale tier and edge-sparse table memory with no
// node-squared link storage. Opt in via SCALE_BENCH_GATE=1 (`make
// bench-scale`); the floors are a quarter of the slowest of repeated
// runs of this gate, so host noise cannot flake it while a real
// regression (a reintroduced dense path, an accidental quadratic) still
// trips it.
func TestScaleBenchGate(t *testing.T) {
	if os.Getenv("SCALE_BENCH_GATE") == "" {
		t.Skip("timing gate; run via `make bench-scale` (SCALE_BENCH_GATE=1)")
	}
	// Floors in task·node pairs per second: the slowest of the runs
	// recorded in EXPERIMENTS.md ("Scale tier"), divided by 4.
	floors := map[string]float64{
		"1k":  2_320_000,
		"5k":  2_575_000,
		"10k": 2_390_000,
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
// layered and chain-bundle scale instances, checks each schedule with
// schedule.Validate and replays it through sim.Execute, which must
// accept it and finish within Eps of its makespan — the 1k tier on
// every `go test`, the 10k tier with the gate. The scale generators draw
// zero-cost tasks, the input on which a timeline ordered by Start alone
// let FCP, FLB, OLB, MCT and FastestNode overlap tasks. BruteForce and
// SMT refuse instances this large; any other error fails the test.
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
				if err == nil {
					var res *sim.Result
					if res, err = sim.Execute(inst, &out); err == nil && !graph.ApproxEq(res.Makespan, out.Makespan()) {
						err = fmt.Errorf("simulated makespan %v, schedule's %v", res.Makespan, out.Makespan())
					}
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
