package experiments

import (
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/runner"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

func TestJitterPreservesStructureAndValidity(t *testing.T) {
	r := rng.New(301)
	inst := datasets.InitialPISAInstance(r.Split())
	j := Jitter(inst, 0.2, r.Split())
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if j.Graph.NumTasks() != inst.Graph.NumTasks() || j.Graph.NumDeps() != inst.Graph.NumDeps() {
		t.Fatal("jitter changed the topology")
	}
	// Network untouched.
	for v := range inst.Net.Speeds {
		if j.Net.Speeds[v] != inst.Net.Speeds[v] {
			t.Fatal("jitter changed node speeds")
		}
	}
	// Original untouched.
	for tk := range inst.Graph.Tasks {
		if inst.Graph.Tasks[tk].Cost < 0 {
			t.Fatal("original corrupted")
		}
	}
}

func TestJitterZeroSigmaIsNearIdentity(t *testing.T) {
	r := rng.New(303)
	inst := datasets.Fig1Instance()
	j := Jitter(inst, 0, r)
	for tk := range inst.Graph.Tasks {
		if !graph.ApproxEq(j.Graph.Tasks[tk].Cost, inst.Graph.Tasks[tk].Cost) {
			t.Fatal("sigma=0 jitter moved a task cost")
		}
	}
}

func TestReplayReproducesNominalMakespan(t *testing.T) {
	// Replaying the nominal schedule on the unjittered instance must
	// reproduce its makespan exactly for every scheduler (start times
	// are all earliest-feasible given assignment and order... for
	// insertion-based schedules the replay is never worse than the
	// recorded makespan).
	for _, inst := range []*graph.Instance{
		datasets.Fig1Instance(),
		datasets.Fig3Instance(true),
		datasets.InitialPISAInstance(rng.New(7)),
	} {
		for _, name := range []string{"HEFT", "CPoP", "MinMin", "OLB", "FastestNode"} {
			s := mustSched(t, name)
			nominal, err := scheduler.Schedule(s, inst)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Replay(inst, nominal)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if m > nominal.Makespan()+graph.Eps {
				t.Fatalf("%s: replay %v worse than nominal %v", name, m, nominal.Makespan())
			}
		}
	}
}

func TestReplayScalesWithCosts(t *testing.T) {
	// Doubling every task cost on a communication-free serial schedule
	// doubles the replayed makespan.
	inst := datasets.Fig1Instance()
	s := mustSched(t, "FastestNode")
	nominal, err := scheduler.Schedule(s, inst)
	if err != nil {
		t.Fatal(err)
	}
	doubled := inst.Clone()
	for tk := range doubled.Graph.Tasks {
		doubled.Graph.Tasks[tk].Cost *= 2
	}
	m, err := Replay(doubled, nominal)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.ApproxEq(m, 2*nominal.Makespan()) {
		t.Fatalf("replay = %v, want %v", m, 2*nominal.Makespan())
	}
}

func TestReplayRejectsMismatchedSchedule(t *testing.T) {
	inst := datasets.Fig1Instance()
	bad := &schedule.Schedule{NumNodes: 3}
	if _, err := Replay(inst, bad); err == nil {
		t.Fatal("mismatched schedule accepted")
	}
}

func TestRobustnessSummary(t *testing.T) {
	inst := datasets.Fig1Instance()
	res, err := RobustnessRun(inst, mustSched(t, "HEFT"), 0.2, 40, 5, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Static.N != 40 || res.Adaptive.N != 40 {
		t.Fatalf("sample counts: %d / %d", res.Static.N, res.Adaptive.N)
	}
	if res.Nominal <= 0 {
		t.Fatal("nominal makespan missing")
	}
	// Re-planning with full knowledge of the jittered costs can't be
	// worse on average than replaying the committed schedule.
	if res.Adaptive.Mean > res.Static.Mean+graph.Eps {
		t.Fatalf("adaptive mean %v worse than static mean %v",
			res.Adaptive.Mean, res.Static.Mean)
	}
}
