package schedulers

import (
	"testing"

	"saga/internal/datasets"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// table1 freezes the full Table I roster with each algorithm's Section
// VI homogeneity requirements. The CLI, the daemon and the sweep table
// resolve schedulers from the registry by name, and PISA restricts its
// perturbations by the requirements, so a registration or requirements
// regression silently corrupts whole sweeps — this test is the tripwire.
var table1 = []struct {
	name  string
	nodes bool // designed for homogeneous node speeds
	links bool // designed for homogeneous link strengths
}{
	{"BIL", false, true},
	{"BruteForce", false, false},
	{"CPoP", false, false},
	{"Duplex", false, false},
	{"ETF", true, false},
	{"FCP", true, true},
	{"FLB", true, true},
	{"FastestNode", false, false},
	{"GDL", false, true},
	{"HEFT", false, false},
	{"MCT", false, false},
	{"MET", false, false},
	{"MaxMin", false, false},
	{"MinMin", false, false},
	{"OLB", false, false},
	{"SMT", false, false},
	{"WBA", false, false},
}

func TestRegistryResolvesTable1(t *testing.T) {
	if len(table1) != 17 {
		t.Fatalf("frozen roster has %d entries, want 17", len(table1))
	}
	for _, row := range table1 {
		s, err := scheduler.New(row.name)
		if err != nil {
			t.Errorf("scheduler.New(%q): %v", row.name, err)
			continue
		}
		if s.Name() != row.name {
			t.Errorf("scheduler.New(%q).Name() = %q", row.name, s.Name())
		}
		req := scheduler.RequirementsOf(s)
		if req.HomogeneousNodes != row.nodes || req.HomogeneousLinks != row.links {
			t.Errorf("%s requirements = %+v, want nodes=%v links=%v",
				row.name, req, row.nodes, row.links)
		}
	}
	// The registry also carries extensions beyond Table I (the
	// historical baselines and the Ensemble meta-scheduler), but never
	// fewer than the paper's 17.
	registered := map[string]bool{}
	for _, n := range scheduler.Names() {
		registered[n] = true
	}
	for _, row := range table1 {
		if !registered[row.name] {
			t.Errorf("Table I algorithm %s missing from the registry", row.name)
		}
	}
}

func TestRostersStayInPaperOrder(t *testing.T) {
	wantExperimental := []string{
		"BIL", "CPoP", "Duplex", "ETF", "FCP", "FLB", "FastestNode",
		"GDL", "HEFT", "MCT", "MET", "MaxMin", "MinMin", "OLB", "WBA",
	}
	if len(ExperimentalNames) != len(wantExperimental) {
		t.Fatalf("ExperimentalNames has %d entries, want %d", len(ExperimentalNames), len(wantExperimental))
	}
	for i, name := range wantExperimental {
		if ExperimentalNames[i] != name {
			t.Fatalf("ExperimentalNames[%d] = %q, want %q (paper figure order)",
				i, ExperimentalNames[i], name)
		}
	}
	wantAppSpecific := []string{"CPoP", "FastestNode", "HEFT", "MaxMin", "MinMin", "WBA"}
	if len(AppSpecificNames) != len(wantAppSpecific) {
		t.Fatalf("AppSpecificNames has %d entries, want %d", len(AppSpecificNames), len(wantAppSpecific))
	}
	experimental := map[string]bool{}
	for _, name := range ExperimentalNames {
		experimental[name] = true
	}
	for i, name := range wantAppSpecific {
		if AppSpecificNames[i] != name {
			t.Fatalf("AppSpecificNames[%d] = %q, want %q (paper order)", i, AppSpecificNames[i], name)
		}
		if !experimental[name] {
			t.Fatalf("app-specific scheduler %q not in the experimental roster", name)
		}
	}
}

func TestRequirementsHonoredOnHomogeneousInstances(t *testing.T) {
	// Every constrained algorithm must produce a valid schedule on an
	// instance satisfying its declared requirements — the instances PISA
	// restricts its search to (Section VI). Run each on a homogeneous
	// variant of the Fig 1 instance (unit speeds, unit links).
	inst := datasets.Fig1Instance()
	homog := inst.Clone()
	for v := range homog.Net.Speeds {
		homog.Net.Speeds[v] = 1
	}
	for u := 0; u < homog.Net.NumNodes(); u++ {
		for v := u + 1; v < homog.Net.NumNodes(); v++ {
			homog.Net.SetLink(u, v, 1)
		}
	}
	for _, row := range table1 {
		if !row.nodes && !row.links {
			continue
		}
		s, err := scheduler.New(row.name)
		if err != nil {
			t.Fatal(err)
		}
		sch, err := scheduler.Schedule(s, homog)
		if err != nil {
			t.Errorf("%s on its designed-for homogeneous instance: %v", row.name, err)
			continue
		}
		if err := schedule.Validate(homog, sch); err != nil {
			t.Errorf("%s produced an invalid schedule: %v", row.name, err)
		}
	}
}

func TestRegistryReturnsFreshInstances(t *testing.T) {
	// scheduler.New hands out independent values: mutating one copy's
	// configuration must not leak into another (WBA is the configurable
	// one today).
	a, err := scheduler.New("WBA")
	if err != nil {
		t.Fatal(err)
	}
	b, err := scheduler.New("WBA")
	if err != nil {
		t.Fatal(err)
	}
	wa, ok := a.(WBA)
	if !ok {
		t.Fatalf("WBA registered as %T", a)
	}
	wb := b.(WBA)
	wa.Rounds = 99
	if wb.Rounds == 99 {
		t.Fatal("registry copies share configuration")
	}
	if wa.Seed != wb.Seed {
		t.Fatal("registry copies must start from the same fixed seed for determinism")
	}
}
