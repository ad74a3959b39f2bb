package experiments

import (
	"encoding/json"
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/runner"
)

func TestJitterPreservesStructureAndValidity(t *testing.T) {
	r := rng.New(301)
	inst := datasets.InitialPISAInstance(r.Split())
	j := jitter(inst, 0.2, r.Split())
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
	j := jitter(inst, 0, r)
	for tk := range inst.Graph.Tasks {
		if !graph.ApproxEq(j.Graph.Tasks[tk].Cost, inst.Graph.Tasks[tk].Cost) {
			t.Fatal("sigma=0 jitter moved a task cost")
		}
	}
}

// TestRobustnessAcceptsZeroCostTies: PISA's [0, 1] weights make
// zero-cost tasks, and two of them on one node start and end at the
// same instant. The static replay must run them in precedence order (b
// before a here, though a has the lower index), as the simulator does,
// and answer rather than refuse the instance. The answer's JSON is
// pinned literally: it is the /v1/robustness body.
func TestRobustnessAcceptsZeroCostTies(t *testing.T) {
	g := graph.NewTaskGraph()
	a := g.AddTask("a", 0)
	b := g.AddTask("b", 0)
	g.MustAddDep(b, a, 1)
	inst := graph.NewInstance(g, graph.NewNetwork(1))
	res, err := robustnessRun(inst, mustSched(t, "HEFT"), 0.2, 3, 1, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	zero := `{"Min":0,"Q1":0,"Median":0,"Q3":0,"Max":0,"Mean":0,"N":3}`
	if want := `{"scheduler":"HEFT","nominal":0,"static":` + zero + `,"adaptive":` + zero + `}`; string(got) != want {
		t.Fatalf("zero-cost instance: got %s, want %s", got, want)
	}
}

func TestRobustnessSummary(t *testing.T) {
	inst := datasets.Fig1Instance()
	res, err := robustnessRun(inst, mustSched(t, "HEFT"), 0.2, 40, 5, runner.Options{})
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
