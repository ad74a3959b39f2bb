package serialize

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/scheduler"
	_ "saga/internal/schedulers"
)

func instancesEqual(a, b *graph.Instance) bool {
	if a.Graph.NumTasks() != b.Graph.NumTasks() || a.Graph.NumDeps() != b.Graph.NumDeps() {
		return false
	}
	for i := range a.Graph.Tasks {
		if a.Graph.Tasks[i] != b.Graph.Tasks[i] {
			return false
		}
	}
	for _, d := range a.Graph.Deps() {
		ca, _ := a.Graph.DepCost(d[0], d[1])
		cb, ok := b.Graph.DepCost(d[0], d[1])
		if !ok || ca != cb {
			return false
		}
	}
	if a.Net.NumNodes() != b.Net.NumNodes() {
		return false
	}
	for v := range a.Net.Speeds {
		if a.Net.Speeds[v] != b.Net.Speeds[v] {
			return false
		}
	}
	for u := range a.Net.Links {
		for v := range a.Net.Links[u] {
			la, lb := a.Net.Links[u][v], b.Net.Links[u][v]
			if la != lb && !(math.IsInf(la, 1) && math.IsInf(lb, 1)) {
				return false
			}
		}
	}
	return true
}

func TestInstanceRoundTripRandom(t *testing.T) {
	r := rng.New(201)
	for i := 0; i < 25; i++ {
		inst := datasets.InitialPISAInstance(r.Split())
		data, err := MarshalInstance(inst)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalInstance(data)
		if err != nil {
			t.Fatal(err)
		}
		if !instancesEqual(inst, got) {
			t.Fatalf("round trip changed instance %d", i)
		}
	}
}

func TestInstanceRoundTripInfiniteLinks(t *testing.T) {
	g, err := datasets.New("montage") // Chameleon networks: infinite links
	if err != nil {
		t.Fatal(err)
	}
	inst := g.Generate(rng.New(7))
	data, err := MarshalInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalInstance(data)
	if err != nil {
		t.Fatal(err)
	}
	if !instancesEqual(inst, got) {
		t.Fatal("infinite-link round trip changed the instance")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalInstance([]byte("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Structurally invalid: cycle.
	bad := `{"tasks":[{"name":"a","cost":1},{"name":"b","cost":1}],
		"deps":[{"from":0,"to":1,"cost":1},{"from":1,"to":0,"cost":1}],
		"speeds":[1],"links":[]}`
	if _, err := UnmarshalInstance([]byte(bad)); err == nil {
		t.Fatal("cyclic instance accepted")
	}
	// Out-of-range link.
	bad2 := `{"tasks":[{"name":"a","cost":1}],"deps":[],
		"speeds":[1,1],"links":[{"u":0,"v":9,"strength":1}]}`
	if _, err := UnmarshalInstance([]byte(bad2)); err == nil {
		t.Fatal("out-of-range link accepted")
	}
	// Every field finite, but the second task's finish time is +Inf: the
	// instance whose schedule used to take an insertion scheduler down.
	overflow := `{"tasks":[{"name":"a","cost":1e308},{"name":"b","cost":1e308}],
		"deps":[{"from":0,"to":1,"cost":1}],"speeds":[1]}`
	if _, err := UnmarshalInstance([]byte(overflow)); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("overflowing instance: %v, want the serial bound refusal", err)
	}
}

func TestSaveLoadInstanceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "inst.json")
	inst := datasets.Fig1Instance()
	if err := SaveInstance(path, inst); err != nil {
		t.Fatal(err)
	}
	got, err := LoadInstance(path)
	if err != nil {
		t.Fatal(err)
	}
	if !instancesEqual(inst, got) {
		t.Fatal("file round trip changed the instance")
	}
	if _, err := LoadInstance(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	inst := datasets.Fig1Instance()
	s, err := scheduler.New("HEFT")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := s.Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalSchedule(sch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSchedule(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes != sch.NumNodes || len(got.ByTask) != len(sch.ByTask) {
		t.Fatal("schedule round trip changed shape")
	}
	for i := range sch.ByTask {
		if got.ByTask[i] != sch.ByTask[i] {
			t.Fatalf("assignment %d changed: %+v vs %+v", i, got.ByTask[i], sch.ByTask[i])
		}
	}
	if !graph.ApproxEq(got.Makespan(), sch.Makespan()) {
		t.Fatal("makespan changed in round trip")
	}
}

func TestUnmarshalScheduleGarbage(t *testing.T) {
	if _, err := UnmarshalSchedule([]byte("[")); err == nil {
		t.Fatal("garbage schedule accepted")
	}
}
