package graph

import (
	"math"
	"testing"

	"saga/internal/rng"
)

// This file proves the edge-sparse Tables against DenseTables, the dense
// reference in densetables_test.go: Build, every incremental maintenance op,
// and the undo paths must agree bit for bit through the whole accessor
// surface, across randomized instances up to 1k tasks with link
// patterns from fully homogeneous to fully heterogeneous.

// sparseRandInstance builds a random DAG over a network whose link
// pattern is chosen by mode:
//
//	0 — homogeneous: every pair shares one strength (empty exception list)
//	1 — clustered: a handful of distinct strengths (small exception list)
//	2 — heterogeneous: every pair distinct (dense-in-CSR degenerate case)
//	3 — free: every pair +Inf (invDefault == 0 fast path)
//	4 — mixed: mostly +Inf with scattered finite links
func sparseRandInstance(r *rng.RNG, nT, nV, mode int) *Instance {
	g := NewTaskGraph()
	for t := 0; t < nT; t++ {
		g.AddTask("", 0.5+4*r.Float64())
	}
	for v := 1; v < nT; v++ {
		// Every task gets at least one predecessor so the DAG is connected,
		// plus a few extra forward edges.
		u := r.Intn(v)
		g.MustAddDep(u, v, r.Float64()*8)
		for k := 0; k < 2; k++ {
			if w := r.Intn(nT); w < v && !g.HasDep(w, v) {
				g.MustAddDep(w, v, r.Float64()*8)
			}
		}
	}
	net := NewNetwork(nV)
	for v := range net.Speeds {
		net.Speeds[v] = 0.5 + 2*r.Float64()
	}
	base := 0.3 + r.Float64()
	for u := 0; u < nV; u++ {
		for v := u + 1; v < nV; v++ {
			var w float64
			switch mode {
			case 0:
				w = base
			case 1:
				w = base * float64(1+r.Intn(3))
			case 2:
				w = 0.1 + r.Float64()
			case 3:
				w = math.Inf(1)
			default:
				w = math.Inf(1)
				if r.Intn(4) == 0 {
					w = 0.2 + r.Float64()
				}
			}
			net.SetLink(u, v, w)
		}
	}
	return NewInstance(g, net)
}

// assertSparseMatchesDense compares the sparse tables with the dense
// reference through every accessor, bit for bit.
func assertSparseMatchesDense(t *testing.T, sp *Tables, dn *DenseTables, g *TaskGraph) {
	t.Helper()
	if sp.NTasks != dn.NTasks || sp.NNodes != dn.NNodes {
		t.Fatalf("shape diverged: (%d,%d) vs (%d,%d)", sp.NTasks, sp.NNodes, dn.NTasks, dn.NNodes)
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
	eq("InvSpeed", sp.InvSpeed, dn.InvSpeed)
	eq("AvgExec", sp.AvgExec, dn.AvgExec)
	eq("Exec", sp.Exec, dn.Exec)
	eq("execPrefix", sp.execPrefix, dn.execPrefix)
	for u := 0; u < sp.NNodes; u++ {
		for v := 0; v < sp.NNodes; v++ {
			if sp.Link(u, v) != dn.Link(u, v) {
				t.Fatalf("Link(%d,%d): %v vs %v", u, v, sp.Link(u, v), dn.Link(u, v))
			}
			if sp.CommFree(u, v) != dn.CommFree(u, v) {
				t.Fatalf("CommFree(%d,%d): %v vs %v", u, v, sp.CommFree(u, v), dn.CommFree(u, v))
			}
		}
	}
	for i := range sp.Topo {
		if sp.Topo[i] != dn.Topo[i] {
			t.Fatalf("Topo[%d]: %d vs %d", i, sp.Topo[i], dn.Topo[i])
		}
	}
	if (sp.TopoErr == nil) != (dn.TopoErr == nil) {
		t.Fatalf("TopoErr: %v vs %v", sp.TopoErr, dn.TopoErr)
	}
	sp.EnsureAvgComm()
	dn.EnsureAvgComm()
	for u := 0; u < g.NumTasks(); u++ {
		for i := range g.Succ[u] {
			if sp.AvgCommSucc(u, i) != dn.AvgCommSucc(u, i) {
				t.Fatalf("AvgCommSucc(%d,%d): %v vs %v", u, i, sp.AvgCommSucc(u, i), dn.AvgCommSucc(u, i))
			}
		}
		for i := range g.Pred[u] {
			if sp.AvgCommPred(u, i) != dn.AvgCommPred(u, i) {
				t.Fatalf("AvgCommPred(%d,%d): %v vs %v", u, i, sp.AvgCommPred(u, i), dn.AvgCommPred(u, i))
			}
		}
	}
}

// TestSparseTablesBuildMatchesDense checks Build alone across sizes and
// link patterns.
func TestSparseTablesBuildMatchesDense(t *testing.T) {
	r := rng.New(0x5babb1e)
	for _, nT := range []int{2, 17, 128, 1000} {
		for _, nV := range []int{2, 5, 23, 48} {
			for mode := 0; mode < 5; mode++ {
				inst := sparseRandInstance(r.Split(), nT, nV, mode)
				var sp Tables
				var dn DenseTables
				sp.Build(inst)
				dn.Build(inst)
				assertSparseMatchesDense(t, &sp, &dn, inst.Graph)
			}
		}
	}
}

// TestSparseTablesNoSquareStorage pins the memory bound: for a
// homogeneous 48-node network the exception list must be empty, and for
// the clustered pattern it must stay well under the |V|² pair count.
func TestSparseTablesNoSquareStorage(t *testing.T) {
	r := rng.New(0x10ca1)
	inst := sparseRandInstance(r.Split(), 64, 48, 0)
	var tb Tables
	tb.Build(inst)
	if n := tb.LinkExceptions(); n != 0 {
		t.Fatalf("homogeneous network stored %d link exceptions, want 0", n)
	}
	if got, cap := tb.MemoryBytes(), 48*48*8; got >= cap+64*48*2*8 {
		t.Fatalf("MemoryBytes %d suspiciously large for 64 tasks x 48 nodes", got)
	}
}

// TestSparseTablesIncrementalMatchesDense is the randomized property
// suite: both implementations track the same instance through long
// random sequences of every incremental op — including the O(1) undo
// paths (AvgCommOf/SetAvgComm, SnapshotAvgComm/RestoreAvgComm) and
// full perturb-then-revert cycles — and must agree bit for bit at
// every checkpoint.
func TestSparseTablesIncrementalMatchesDense(t *testing.T) {
	r := rng.New(0xfeedface)
	sizes := []struct{ nT, nV, ops int }{
		{6, 3, 400},
		{40, 8, 400},
		{200, 16, 200},
		{1000, 32, 60},
	}
	for _, sz := range sizes {
		for mode := 0; mode < 5; mode++ {
			rr := r.Split()
			inst := sparseRandInstance(rr, sz.nT, sz.nV, mode)
			g, net := inst.Graph, inst.Net
			var sp Tables
			var dn DenseTables
			sp.Build(inst)
			dn.Build(inst)
			var spSnap, dnSnap []float64
			for i := 0; i < sz.ops; i++ {
				switch op := rr.Intn(8); op {
				case 0: // node speed
					v := rr.Intn(sz.nV)
					old := net.Speeds[v]
					net.Speeds[v] = 0.5 + 2*rr.Float64()
					sp.UpdateNodeSpeed(v)
					dn.UpdateNodeSpeed(v)
					if rr.Intn(2) == 0 { // revert
						net.Speeds[v] = old
						sp.UpdateNodeSpeed(v)
						dn.UpdateNodeSpeed(v)
					}
				case 1: // link speed, snapshot/restore undo half the time
					u, v := rr.Intn(sz.nV), rr.Intn(sz.nV)
					old := net.Links[u][v]
					undo := rr.Intn(2) == 0
					var spOK, dnOK bool
					if undo {
						spSnap, spOK = sp.SnapshotAvgComm(spSnap)
						dnSnap, dnOK = dn.SnapshotAvgComm(dnSnap)
						if spOK != dnOK {
							t.Fatalf("snapshot availability diverged: %v vs %v", spOK, dnOK)
						}
					}
					w := 0.1 + rr.Float64()
					if rr.Intn(5) == 0 {
						w = math.Inf(1)
					}
					net.SetLink(u, v, w)
					sp.UpdateLinkSpeed(u, v)
					dn.UpdateLinkSpeed(u, v)
					if undo {
						net.SetLink(u, v, old)
						sp.UpdateLinkSpeed(u, v)
						dn.UpdateLinkSpeed(u, v)
						if spOK {
							sp.RestoreAvgComm(spSnap)
							dn.RestoreAvgComm(dnSnap)
						}
					}
				case 2: // task weight
					tk := rr.Intn(sz.nT)
					g.Tasks[tk].Cost = 0.5 + 4*rr.Float64()
					sp.UpdateTaskWeight(tk)
					dn.UpdateTaskWeight(tk)
				case 3: // dep weight, O(1) undo half the time
					if g.NumDeps() == 0 {
						continue
					}
					u, v := g.DepAt(rr.Intn(g.NumDeps()))
					spOld, spOK := sp.AvgCommOf(u, v)
					dnOld, dnOK := dn.AvgCommOf(u, v)
					if spOK != dnOK || (spOK && spOld != dnOld) {
						t.Fatalf("AvgCommOf(%d,%d) diverged: (%v,%v) vs (%v,%v)", u, v, spOld, spOK, dnOld, dnOK)
					}
					old, _ := g.DepCost(u, v)
					g.SetDepCost(u, v, rr.Float64()*8)
					sp.UpdateDepWeight(u, v)
					dn.UpdateDepWeight(u, v)
					if spOK && rr.Intn(2) == 0 {
						g.SetDepCost(u, v, old)
						sp.SetAvgComm(u, v, spOld)
						dn.SetAvgComm(u, v, dnOld)
					}
				case 4: // add dep (forward edge keeps it acyclic)
					u, v := rr.Intn(sz.nT), rr.Intn(sz.nT)
					if u >= v || g.HasDep(u, v) {
						continue
					}
					g.AddDepUnchecked(u, v, rr.Float64()*8)
					sp.AddDep(u, v)
					dn.AddDep(u, v)
				case 5: // remove a random dep
					if g.NumDeps() < 2 {
						continue
					}
					u, v := g.DepAt(rr.Intn(g.NumDeps()))
					g.RemoveDep(u, v)
					sp.RemoveDep(u, v)
					dn.RemoveDep(u, v)
				case 6: // force the lazy fill so patched-while-built paths run
					sp.EnsureAvgComm()
					dn.EnsureAvgComm()
				case 7: // full rebuild mid-sequence
					sp.Build(inst)
					dn.Build(inst)
				}
				if sp.Generation != dn.Generation {
					t.Fatalf("Generation diverged after op %d: %d vs %d", i, sp.Generation, dn.Generation)
				}
				if i%20 == 19 {
					assertSparseMatchesDense(t, &sp, &dn, g)
				}
			}
			assertSparseMatchesDense(t, &sp, &dn, g)
		}
	}
}

// TestTablesChain10000 is the deep-graph regression: a 10k-task
// dependency chain must build, topo-sort, and maintain incrementally
// without recursion-depth trouble (all graph traversals are iterative),
// and the sparse tables must still match the dense reference at that
// depth.
func TestTablesChain10000(t *testing.T) {
	const n = 10000
	g := NewTaskGraph()
	for i := 0; i < n; i++ {
		g.AddTask("", 1+float64(i%7))
	}
	for i := 1; i < n; i++ {
		g.MustAddDep(i-1, i, float64(i%13))
	}
	net := NewNetwork(4)
	for v := range net.Speeds {
		net.Speeds[v] = 1 + 0.5*float64(v)
	}
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			net.SetLink(u, v, 2.0)
		}
	}
	inst := NewInstance(g, net)
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := g.Depth(); d != n {
		t.Fatalf("Depth = %d, want %d", d, n)
	}
	if !g.Reaches(0, n-1) {
		t.Fatal("Reaches(0, n-1) = false on a chain")
	}
	var sp Tables
	var dn DenseTables
	sp.Build(inst)
	dn.Build(inst)
	if sp.TopoErr != nil {
		t.Fatal(sp.TopoErr)
	}
	for i, tk := range sp.Topo {
		if tk != i {
			t.Fatalf("Topo[%d] = %d on a chain", i, tk)
		}
	}
	// A mid-chain removal and re-add exercises the incremental topo
	// repair at depth.
	mid := n / 2
	g.RemoveDep(mid-1, mid)
	sp.RemoveDep(mid-1, mid)
	dn.RemoveDep(mid-1, mid)
	g.AddDepUnchecked(mid-1, mid, 3)
	sp.AddDep(mid-1, mid)
	dn.AddDep(mid-1, mid)
	assertSparseMatchesDense(t, &sp, &dn, g)
}
