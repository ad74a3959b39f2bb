package core

import (
	"bytes"
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/scheduler"
	_ "saga/internal/schedulers"
)

// forceOp drives one specific operator (with its fallback chain) the
// way perturbInPlace would, bypassing the random operator pick.
func forceOp(op perturbOp, inst *graph.Instance, r *rng.RNG, p PerturbOptions, ps *perturbState) {
	switch op {
	case opNodeWeight:
		applyNodeWeight(inst, r, p, ps)
	case opLinkWeight:
		if !applyLinkWeight(inst, r, p, ps) {
			applyNodeWeight(inst, r, p, ps)
		}
	case opTaskWeight:
		applyTaskWeight(inst, r, p, ps)
	case opDepWeight:
		if !applyDepWeight(inst, r, p, ps) {
			applyTaskWeight(inst, r, p, ps)
		}
	case opAddDep:
		if !applyAddDep(inst, r, p, ps) {
			applyTaskWeight(inst, r, p, ps)
		}
	case opRemoveDep:
		if !applyRemoveDep(inst, r, ps) {
			applyTaskWeight(inst, r, p, ps)
		}
	}
}

var opNames = map[perturbOp]string{
	opNodeWeight: "NodeWeight",
	opLinkWeight: "LinkWeight",
	opTaskWeight: "TaskWeight",
	opDepWeight:  "DepWeight",
	opAddDep:     "AddDep",
	opRemoveDep:  "RemoveDep",
}

// TestPerturbUndoRoundTrip is the per-operator apply→undo property:
// for every operator — including the structural AddDep/RemoveDep — and
// a panel of randomized instances, applying the perturbation and then
// reverting it restores the instance byte-identically (serialization
// fingerprints equal) and leaves the re-patched tables bit-identical to
// a fresh rebuild. The panel is 50 Section VI instances (3–5 tasks and
// nodes) plus the wide64 benchmark shape (64 tasks on 8 nodes), where
// the average-table rebuild, the Kahn re-run and the exec-row re-sum
// each span more than five tasks and nodes.
func TestPerturbUndoRoundTrip(t *testing.T) {
	p := DefaultPerturb().withDefaults()
	const trials = 50
	for op, name := range opNames {
		op := op
		t.Run(name, func(t *testing.T) {
			r := rng.New(0xabc + uint64(op))
			for trial := 0; trial <= trials; trial++ {
				var inst *graph.Instance
				if trial < trials {
					inst = datasets.InitialPISAInstance(r.Split())
				} else {
					inst = pisaBenchInstances()["wide64"]
				}
				ps := &perturbState{ops: enabledOps(p)}
				var tab graph.Tables
				tab.Build(inst)
				tab.EnsureAvgComm()
				// Several rounds per instance so the operator also hits
				// states it created itself (e.g. removing an edge it added).
				for round := 0; round < 20; round++ {
					before := fingerprint(t, inst)
					forceOp(op, inst, r, p, ps)
					applyTables(&tab, ps)
					revert(inst, &tab, ps)
					after := fingerprint(t, inst)
					if !bytes.Equal(before, after) {
						t.Fatalf("trial %d round %d: apply→undo changed the instance\nbefore: %s\nafter:  %s",
							trial, round, before, after)
					}
					assertTablesMatchRebuild(t, &tab, inst)
					// Now let the mutation stand so later rounds start
					// from a perturbed state.
					forceOp(op, inst, r, p, ps)
					applyTables(&tab, ps)
				}
				if err := inst.Validate(); err != nil {
					t.Fatalf("trial %d: instance invalid after perturbations: %v", trial, err)
				}
			}
		})
	}
}

// TestPerturbUndoRoundTripMixed is the whole-loop form of the property:
// a long random operator sequence where every application is undone,
// finishing with the original instance bytes.
func TestPerturbUndoRoundTripMixed(t *testing.T) {
	for mode, p := range incrementalModes() {
		t.Run(mode, func(t *testing.T) {
			pp := p.withDefaults()
			r := rng.New(0xdef)
			inst := prepare(datasets.InitialPISAInstance(r.Split()), pp)
			ps := &perturbState{ops: enabledOps(pp)}
			var tab graph.Tables
			tab.Build(inst)
			before := fingerprint(t, inst)
			for i := 0; i < 2000; i++ {
				perturbInPlace(inst, r, pp, ps)
				applyTables(&tab, ps)
				if i%100 == 0 {
					tab.EnsureAvgComm() // exercise the patched-while-built path
				}
				revert(inst, &tab, ps)
			}
			if !bytes.Equal(before, fingerprint(t, inst)) {
				t.Fatal("2000 undone perturbations drifted the instance")
			}
			assertTablesMatchRebuild(t, &tab, inst)
		})
	}
}

// assertTablesMatchRebuild compares an incrementally maintained Tables
// against a fresh Build for the same instance, bit for bit, through the
// scheduling-relevant surface: the rank inputs (which read every exec
// average, edge average, and the topological order) and the full
// link-accessor surface.
func assertTablesMatchRebuild(t *testing.T, tab *graph.Tables, inst *graph.Instance) {
	t.Helper()
	var fresh graph.Tables
	fresh.Build(inst)
	fresh.EnsureAvgComm()
	tab.EnsureAvgComm()
	if tab.NTasks != fresh.NTasks || tab.NNodes != fresh.NNodes {
		t.Fatalf("table shape diverged: (%d,%d) vs (%d,%d)", tab.NTasks, tab.NNodes, fresh.NTasks, fresh.NNodes)
	}
	assertF64Equal(t, "InvSpeed", tab.InvSpeed, fresh.InvSpeed)
	for u := 0; u < tab.NNodes; u++ {
		for v := 0; v < tab.NNodes; v++ {
			if tab.Link(u, v) != fresh.Link(u, v) {
				t.Fatalf("Link(%d,%d) diverged: %v vs %v", u, v, tab.Link(u, v), fresh.Link(u, v))
			}
			if tab.CommFree(u, v) != fresh.CommFree(u, v) {
				t.Fatalf("CommFree(%d,%d) diverged: %v vs %v", u, v, tab.CommFree(u, v), fresh.CommFree(u, v))
			}
		}
	}
	assertF64Equal(t, "AvgExec", tab.AvgExec, fresh.AvgExec)
	assertF64Equal(t, "Exec", tab.Exec, fresh.Exec)
	if len(tab.Topo) != len(fresh.Topo) {
		t.Fatalf("Topo length diverged: %d vs %d", len(tab.Topo), len(fresh.Topo))
	}
	for i := range tab.Topo {
		if tab.Topo[i] != fresh.Topo[i] {
			t.Fatalf("Topo[%d] diverged: %d vs %d", i, tab.Topo[i], fresh.Topo[i])
		}
	}
	g := inst.Graph
	for u := 0; u < g.NumTasks(); u++ {
		for i := range g.Succ[u] {
			if tab.AvgCommSucc(u, i) != fresh.AvgCommSucc(u, i) {
				t.Fatalf("AvgCommSucc(%d,%d) diverged: %v vs %v", u, i, tab.AvgCommSucc(u, i), fresh.AvgCommSucc(u, i))
			}
		}
		for i := range g.Pred[u] {
			if tab.AvgCommPred(u, i) != fresh.AvgCommPred(u, i) {
				t.Fatalf("AvgCommPred(%d,%d) diverged: %v vs %v", u, i, tab.AvgCommPred(u, i), fresh.AvgCommPred(u, i))
			}
		}
	}
}

func assertF64Equal(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s length diverged: %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] diverged: %v vs %v", name, i, got[i], want[i])
		}
	}
}

// TestPerturbStateLivesInScratch pins where the undo machinery's state
// is owned: two Runs threading the same scratch reuse one perturbState
// (no per-run state leaks into globals), and distinct scratches never
// share one.
func TestPerturbStateLivesInScratch(t *testing.T) {
	scr := scheduler.NewScratch()
	opts := testOptions(51)
	opts.Scratch = scr
	if _, err := Run(mustSched(t, "HEFT"), mustSched(t, "CPoP"), opts); err != nil {
		t.Fatal(err)
	}
	ps := scr.Ext(pisaExtKey, func() any { return new(perturbState) }).(*perturbState)
	if len(ps.ops) == 0 {
		t.Fatal("Run left no perturbState in the scratch it was given")
	}
	other := scheduler.NewScratch()
	ps2 := other.Ext(pisaExtKey, func() any { return new(perturbState) }).(*perturbState)
	if ps2 == ps {
		t.Fatal("distinct scratches share one perturbState")
	}
}
