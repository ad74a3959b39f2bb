package graph

import (
	"testing"

	"saga/internal/rng"
)

// incInstance builds a small heterogeneous instance exercising every
// table: 5 tasks in a diamond-plus-tail DAG over 4 nodes.
func incInstance() *Instance {
	g := NewTaskGraph()
	a := g.AddTask("a", 2)
	b := g.AddTask("b", 3)
	c := g.AddTask("c", 5)
	d := g.AddTask("d", 7)
	e := g.AddTask("e", 11)
	g.MustAddDep(a, b, 1.5)
	g.MustAddDep(a, c, 2.5)
	g.MustAddDep(b, d, 3.5)
	g.MustAddDep(c, d, 4.5)
	g.MustAddDep(d, e, 5.5)
	net := NewNetwork(4)
	for v := range net.Speeds {
		net.Speeds[v] = 0.5 + 0.3*float64(v)
		for u := v + 1; u < net.NumNodes(); u++ {
			net.SetLink(v, u, 0.4+0.2*float64(u+v))
		}
	}
	return NewInstance(g, net)
}

// assertTablesEqual compares every field of two built tables bit for
// bit, including the lazily built per-edge averages.
func assertTablesEqual(t *testing.T, got, want *Tables, g *TaskGraph) {
	t.Helper()
	got.EnsureAvgComm()
	want.EnsureAvgComm()
	if got.NTasks != want.NTasks || got.NNodes != want.NNodes {
		t.Fatalf("shape diverged: (%d,%d) vs (%d,%d)", got.NTasks, got.NNodes, want.NTasks, want.NNodes)
	}
	eq := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s length %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d]: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
	eq("InvSpeed", got.InvSpeed, want.InvSpeed)
	for u := 0; u < got.NNodes; u++ {
		for v := 0; v < got.NNodes; v++ {
			if got.Link(u, v) != want.Link(u, v) {
				t.Fatalf("Link(%d,%d): %v vs %v", u, v, got.Link(u, v), want.Link(u, v))
			}
			if got.CommFree(u, v) != want.CommFree(u, v) {
				t.Fatalf("CommFree(%d,%d): %v vs %v", u, v, got.CommFree(u, v), want.CommFree(u, v))
			}
		}
	}
	eq("AvgExec", got.AvgExec, want.AvgExec)
	eq("Exec", got.Exec, want.Exec)
	eq("avgComm", got.avgComm, want.avgComm)
	if len(got.Topo) != len(want.Topo) {
		t.Fatalf("Topo length %d vs %d", len(got.Topo), len(want.Topo))
	}
	for i := range got.Topo {
		if got.Topo[i] != want.Topo[i] {
			t.Fatalf("Topo[%d]: %d vs %d", i, got.Topo[i], want.Topo[i])
		}
	}
	if (got.TopoErr == nil) != (want.TopoErr == nil) {
		t.Fatalf("TopoErr: %v vs %v", got.TopoErr, want.TopoErr)
	}
}

// TestTablesIncrementalUpdates drives each Update* method through a
// mutation and checks the patched tables against a fresh Build, bit
// for bit — the delta updates' core guarantee.
func TestTablesIncrementalUpdates(t *testing.T) {
	steps := []struct {
		name   string
		mutate func(inst *Instance, tb *Tables)
	}{
		{"NodeSpeed", func(inst *Instance, tb *Tables) {
			inst.Net.Speeds[2] = 1.9
			tb.UpdateNodeSpeed(2)
		}},
		{"LinkSpeed", func(inst *Instance, tb *Tables) {
			inst.Net.SetLink(1, 3, 0.05)
			tb.UpdateLinkSpeed(1, 3)
		}},
		{"TaskWeight", func(inst *Instance, tb *Tables) {
			inst.Graph.Tasks[3].Cost = 0.125
			tb.UpdateTaskWeight(3)
		}},
		{"DepWeight", func(inst *Instance, tb *Tables) {
			inst.Graph.SetDepCost(2, 3, 9.5)
			tb.UpdateDepWeight(2, 3)
		}},
		{"AddDep", func(inst *Instance, tb *Tables) {
			inst.Graph.AddDepUnchecked(1, 4, 0.75)
			tb.AddDep(1, 4)
		}},
		{"RemoveDep", func(inst *Instance, tb *Tables) {
			inst.Graph.RemoveDep(0, 2)
			tb.RemoveDep(0, 2)
		}},
	}
	// Cumulative: each step mutates the same instance, so later patches
	// must hold on states earlier patches produced. Run once with the
	// avgComm table pre-built (patch path) and once without (lazy path).
	for _, prebuild := range []bool{true, false} {
		inst := incInstance()
		var tb Tables
		tb.Build(inst)
		if prebuild {
			tb.EnsureAvgComm()
		}
		for _, s := range steps {
			s.mutate(inst, &tb)
			var fresh Tables
			fresh.Build(inst)
			assertTablesEqual(t, &tb, &fresh, inst.Graph)
		}
	}
}

// TestUpdateNodeSpeedPrefixResume hammers UpdateNodeSpeed's row re-sum:
// a long random walk of speed changes hitting every column (first,
// middle, last), each patch compared bit for bit against a from-scratch
// Build, so any drift from Build's left-to-right summation order would
// surface here.
func TestUpdateNodeSpeedPrefixResume(t *testing.T) {
	r := rng.New(0x5eed)
	inst := incInstance()
	var tb Tables
	tb.Build(inst)
	nV := inst.Net.NumNodes()
	for step := 0; step < 200; step++ {
		v := step % nV // cycle deterministically so edges columns 0 and nV-1 recur
		inst.Net.Speeds[v] = 0.2 + r.Float64()
		tb.UpdateNodeSpeed(v)
		var fresh Tables
		fresh.Build(inst)
		assertTablesEqual(t, &tb, &fresh, inst.Graph)
	}
}

// TestTablesUpdateDiagonalLinkIgnored mirrors Network.SetLink's
// self-link semantics.
func TestTablesUpdateDiagonalLinkIgnored(t *testing.T) {
	inst := incInstance()
	var tb Tables
	tb.Build(inst)
	tb.UpdateLinkSpeed(2, 2) // must be a no-op, not a corruption
	var fresh Tables
	fresh.Build(inst)
	assertTablesEqual(t, &tb, &fresh, inst.Graph)
}

func TestTakeRestoreDepPreservesOrder(t *testing.T) {
	inst := incInstance()
	g := inst.Graph
	wantDeps := g.Deps()
	cost, si, pi, ok := g.TakeDep(0, 2) // middle of a's successor list
	if !ok || cost != 2.5 {
		t.Fatalf("TakeDep = (%v, ok=%v), want (2.5, true)", cost, ok)
	}
	if g.HasDep(0, 2) {
		t.Fatal("edge still present after TakeDep")
	}
	g.RestoreDep(0, 2, cost, si, pi)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	gotDeps := g.Deps()
	if len(gotDeps) != len(wantDeps) {
		t.Fatalf("dep count %d, want %d", len(gotDeps), len(wantDeps))
	}
	for i := range wantDeps {
		if gotDeps[i] != wantDeps[i] {
			t.Fatalf("Deps()[%d] = %v, want %v (order not restored)", i, gotDeps[i], wantDeps[i])
		}
	}
	if _, _, _, ok := g.TakeDep(4, 0); ok {
		t.Fatal("TakeDep invented a missing edge")
	}
}

func TestDepAtMatchesDeps(t *testing.T) {
	g := incInstance().Graph
	deps := g.Deps()
	for k, d := range deps {
		u, v := g.DepAt(k)
		if u != d[0] || v != d[1] {
			t.Fatalf("DepAt(%d) = (%d,%d), want %v", k, u, v, d)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DepAt out of range did not panic")
		}
	}()
	g.DepAt(len(deps))
}

func TestReachScratchMatchesReaches(t *testing.T) {
	g := incInstance().Graph
	var rs ReachScratch
	for u := 0; u < g.NumTasks(); u++ {
		for v := 0; v < g.NumTasks(); v++ {
			if got, want := rs.Reaches(g, u, v), g.Reaches(u, v); got != want {
				t.Fatalf("ReachScratch.Reaches(%d,%d) = %v, Reaches = %v", u, v, got, want)
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		rs.Reaches(g, 0, 4)
	})
	if allocs != 0 {
		t.Fatalf("warm ReachScratch.Reaches allocates %.1f/op", allocs)
	}
}

// TestTablesGenerationBumps pins the cache-invalidation contract behind
// scheduler.EvalCache: Build and every mutating maintenance method must
// strictly increase Generation, so anything memoized against an older
// stamp can never be served for newer table state. Lazy materialization
// (EnsureAvgComm) and read-only accessors must leave it alone.
func TestTablesGenerationBumps(t *testing.T) {
	inst := incInstance()
	var tb Tables
	last := tb.Generation
	expectBump := func(name string, mutate func()) {
		t.Helper()
		mutate()
		if tb.Generation <= last {
			t.Fatalf("%s did not bump Generation (%d -> %d)", name, last, tb.Generation)
		}
		last = tb.Generation
	}
	expectNoBump := func(name string, op func()) {
		t.Helper()
		op()
		if tb.Generation != last {
			t.Fatalf("%s changed Generation (%d -> %d); it mutates no logical state", name, last, tb.Generation)
		}
	}

	expectBump("Build", func() { tb.Build(inst) })
	expectNoBump("EnsureAvgComm", tb.EnsureAvgComm)
	expectNoBump("AvgCommSucc", func() { tb.AvgCommSucc(0, 0) })
	expectBump("UpdateNodeSpeed", func() {
		inst.Net.Speeds[1] = 2.25
		tb.UpdateNodeSpeed(1)
	})
	expectBump("UpdateLinkSpeed", func() {
		inst.Net.SetLink(0, 3, 0.75)
		tb.UpdateLinkSpeed(0, 3)
	})
	expectBump("UpdateLinkSpeed(diagonal)", func() { tb.UpdateLinkSpeed(2, 2) })
	expectBump("UpdateTaskWeight", func() {
		inst.Graph.Tasks[2].Cost = 4.5
		tb.UpdateTaskWeight(2)
	})
	expectBump("UpdateDepWeight(unbuilt avgComm)", func() {
		// The link update above invalidated the average table, so this
		// exercises the early-return path — the instance still changed.
		inst.Graph.SetDepCost(0, 1, 1.75)
		tb.UpdateDepWeight(0, 1)
	})
	tb.EnsureAvgComm()
	last = tb.Generation
	expectBump("UpdateDepWeight(built avgComm)", func() {
		inst.Graph.SetDepCost(0, 1, 1.25)
		tb.UpdateDepWeight(0, 1)
	})
	expectBump("AddDep", func() {
		inst.Graph.AddDepUnchecked(1, 4, 0.5)
		tb.AddDep(1, 4)
	})
	expectBump("RemoveDep", func() {
		inst.Graph.RemoveDep(1, 4)
		tb.RemoveDep(1, 4)
	})
	expectBump("Build(rebuild)", func() { tb.Build(inst) })
}

// TestTablesTopoIncrementalRepair drives the structural patches through
// long randomized add/remove walks on random DAGs and checks, after
// every single edge change, that the patched order is identical to a
// fresh Build's Kahn run.
func TestTablesTopoIncrementalRepair(t *testing.T) {
	r := rng.New(0x70b0)
	for trial := 0; trial < 30; trial++ {
		n := 4 + r.Intn(12)
		g := NewTaskGraph()
		for i := 0; i < n; i++ {
			g.AddTask("t", 1)
		}
		// Seed with a random acyclic edge set.
		for i := 0; i < 2*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasDep(u, v) && !g.Reaches(v, u) {
				g.MustAddDep(u, v, 1)
			}
		}
		net := NewNetwork(3)
		inst := NewInstance(g, net)
		var tb Tables
		tb.Build(inst)

		for step := 0; step < 200; step++ {
			if r.Float64() < 0.5 && g.NumDeps() > 0 {
				u, v := g.DepAt(r.Intn(g.NumDeps()))
				g.RemoveDep(u, v)
				tb.RemoveDep(u, v)
			} else {
				u, v := r.Intn(n), r.Intn(n)
				if u == v || g.HasDep(u, v) || g.Reaches(v, u) {
					continue
				}
				g.AddDepUnchecked(u, v, 1)
				tb.AddDep(u, v)
			}
			var fresh Tables
			fresh.Build(inst)
			if len(tb.Topo) != len(fresh.Topo) {
				t.Fatalf("trial %d step %d: Topo length %d vs %d", trial, step, len(tb.Topo), len(fresh.Topo))
			}
			for i := range tb.Topo {
				if tb.Topo[i] != fresh.Topo[i] {
					t.Fatalf("trial %d step %d: Topo[%d] = %d, want %d (incremental repair drifted from canonical Kahn)",
						trial, step, i, tb.Topo[i], fresh.Topo[i])
				}
			}
		}
	}
}

func TestAddDepUncheckedTailUndo(t *testing.T) {
	g := incInstance().Graph
	before := g.Deps()
	g.AddDepUnchecked(1, 2, 0.33)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.RemoveDep(1, 2) {
		t.Fatal("added edge missing")
	}
	after := g.Deps()
	if len(after) != len(before) {
		t.Fatalf("dep count %d, want %d", len(after), len(before))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("Deps()[%d] = %v, want %v", i, after[i], before[i])
		}
	}
}
