package schedulers

import (
	"testing"

	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

func TestEnsembleNoWorseThanMembers(t *testing.T) {
	e := NewEnsemble("test-ens", "HEFT", "CPoP", "FastestNode")
	for _, inst := range randomInstances(t, 20, 0xE5) {
		es, err := scheduler.Schedule(e, inst)
		if err != nil {
			t.Fatal(err)
		}
		if err := schedule.Validate(inst, es); err != nil {
			t.Fatal(err)
		}
		for _, m := range e.Members() {
			ms, err := scheduler.Schedule(m, inst)
			if err != nil {
				t.Fatal(err)
			}
			if es.Makespan() > ms.Makespan()+graph.Eps {
				t.Fatalf("ensemble %v worse than member %s %v",
					es.Makespan(), m.Name(), ms.Makespan())
			}
		}
	}
}

func TestEnsembleRegistered(t *testing.T) {
	s, err := scheduler.New("Ensemble")
	if err != nil {
		t.Fatal(err)
	}
	inst := randomInstances(t, 1, 0xE6)[0]
	sch, err := scheduler.Schedule(s, inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(inst, sch); err != nil {
		t.Fatal(err)
	}
}

func TestEnsembleNotInExperimentalRoster(t *testing.T) {
	// The paper's experiments use exactly the 15 Table I polynomial
	// algorithms; Ensemble is an extension and must not leak in.
	for _, n := range ExperimentalNames {
		if n == "Ensemble" {
			t.Fatal("Ensemble leaked into the experimental roster")
		}
	}
}

func TestNewEnsemblePanicsOnUnknownMember(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown member did not panic")
		}
	}()
	NewEnsemble("bad", "NoSuchScheduler")
}

func TestNewEnsemblePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty ensemble did not panic")
		}
	}()
	NewEnsemble("empty")
}

func TestEnsembleEqualsDuplexForMinMinMaxMin(t *testing.T) {
	// Duplex is the two-member special case of Ensemble.
	e := NewEnsemble("duplex-equiv", "MinMin", "MaxMin")
	duplex, _ := scheduler.New("Duplex")
	for _, inst := range randomInstances(t, 10, 0xE7) {
		a, err := scheduler.Schedule(e, inst)
		if err != nil {
			t.Fatal(err)
		}
		b, err := scheduler.Schedule(duplex, inst)
		if err != nil {
			t.Fatal(err)
		}
		if !graph.ApproxEq(a.Makespan(), b.Makespan()) {
			t.Fatalf("ensemble(MinMin,MaxMin) %v != Duplex %v", a.Makespan(), b.Makespan())
		}
	}
}
