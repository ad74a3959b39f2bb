package graph

import "math"

// Tables caches the derived cost quantities every list scheduler keeps
// recomputing from an Instance: inverse node speeds, the link-strength
// matrix in an edge-sparse default-plus-exceptions layout, per-task
// average execution times, per-edge average communication times
// (aligned with both the successor and predecessor adjacency lists),
// and the deterministic topological order. Build populates them reusing
// the receiver's storage (the per-edge averages lazily, via
// EnsureAvgComm), so a per-worker Tables rebuilt once per instance
// makes the scheduling hot path allocation-free.
//
// The averages are accumulated with exactly the same floating-point
// operation order as Instance.AvgExecTime and Instance.AvgCommTime, so
// schedulers reading the tables produce bit-identical schedules to ones
// calling the Instance methods directly.
//
// Storage discipline (ARCHITECTURE.md invariant 9): Tables holds no
// |V|²-sized array. The link matrix is stored as one modal default
// strength plus a CSR-indexed exception list, sized O(|V|+|E|) where
// |E| counts the node pairs whose strength differs from the mode; the
// remaining tables are O(|T|·|V|) (exec) and O(|D|) (edge averages).
// The previous dense implementation survives verbatim as DenseTables in
// densetables_test.go, the test-only bit-identity reference
// sparse_test.go proves this one against.
//
// Tables is a snapshot: it does not observe later mutations of the
// instance. Callers that perturb weights or structure must either call
// Build again before the next use, or call the one incremental patch
// the staleness contract (at UpdateNodeSpeed) names for each mutation,
// forward or back — the PISA annealer patches once per in-place
// perturbation and once more when it rolls a rejected one back.
type Tables struct {
	// NTasks and NNodes record the shape the tables were built for.
	NTasks, NNodes int

	// Generation is the monotonically increasing stamp of the tables'
	// logical state: Build and every mutating maintenance method
	// (Update*/AddDep/RemoveDep) increment it,
	// and it is never reset — not even when Build points the tables at a
	// different instance. Anything derived from the tables (the rank
	// vectors scheduler.EvalCache memoizes) is therefore safe to reuse
	// exactly when (instance pointer, Generation) both match the values
	// recorded at computation time: a stale read would require a mutation
	// that did not bump the stamp, which the staleness contract forbids
	// and TestTablesGenerationBumps pins down. Lazy fills (EnsureAvgComm)
	// do not bump it — they change no logical state, only materialize
	// values the current generation already determines.
	Generation uint64

	// InvSpeed[v] is 1/s(v).
	InvSpeed []float64
	// AvgExec[t] equals Instance.AvgExecTime(t).
	AvgExec []float64
	// Exec is the dense row-major |T|×|V| execution-time matrix:
	// Exec[t*NNodes+v] = c(t)/s(v), each entry the one division
	// Instance.ExecTime performs, so reads are bit-identical.
	Exec []float64
	// Topo is the deterministic topological order of the task graph
	// (equal to TaskGraph.TopoOrder); TopoErr records the cycle error if
	// the graph has one, in which case Topo is invalid.
	Topo    []int
	TopoErr error

	// Edge-sparse link storage. Off-diagonal strengths equal to
	// linkDefault (the modal off-diagonal value at Build time, smallest
	// value on a frequency tie) are implicit; every other off-diagonal
	// entry lives in a row-indexed CSR exception list: linkOff has
	// NNodes+1 row offsets into linkCol/linkVal/linkInv, columns sorted
	// ascending within a row, with both symmetric copies stored.
	// invDefault and linkInv mirror the 1/s(u,v) convention of the old
	// dense InvLink: 0 exactly when the strength is +Inf, so "inverse is
	// zero" still means "communication is free". The diagonal is never
	// stored: Link(u, u) is +Inf and CommFree(u, u) is true by fiat,
	// matching the self-link convention Network.Validate enforces. The
	// default is chosen once per Build and never migrates — incremental
	// link updates that set an entry to a non-default value insert an
	// exception, and updates back to the default value overwrite the
	// existing exception in place (a stored exception whose value equals
	// the default is legal and harmless).
	linkDefault float64
	invDefault  float64
	linkOff     []int
	linkCol     []int
	linkVal     []float64
	linkInv     []float64
	// defCount is Build's scratch for the modal-strength election,
	// cleared (buckets retained) each Build.
	defCount map[float64]int

	// avgComm holds AvgCommTime for every edge twice: first aligned with
	// the concatenated successor lists, then with the predecessor lists.
	// succOff/predOff are the per-task offsets into it. It is the one
	// expensive table (O(|D|·|V|²) pair loops), so Build defers it:
	// EnsureAvgComm fills it on first use per Build, and scheduler pairs
	// that never read edge averages (MCT, MinMin, WBA, ...) skip the
	// cost entirely.
	avgComm      []float64
	succOff      []int
	predOff      []int
	avgCommBuilt bool
	src          *Instance // instance of the last Build, for EnsureAvgComm

	indeg    []int // Kahn scratch
	frontier []int
}

// AvgCommSucc returns the average communication time of the i-th
// successor edge of task t (the edge g.Succ[t][i]); it equals
// Instance.AvgCommTime(t, g.Succ[t][i].To). Call EnsureAvgComm once
// before a read loop.
func (tb *Tables) AvgCommSucc(t, i int) float64 {
	return tb.avgComm[tb.succOff[t]+i]
}

// AvgCommPred returns the average communication time of the i-th
// predecessor edge of task t (the edge (g.Pred[t][i].To, t)). Call
// EnsureAvgComm once before a read loop.
func (tb *Tables) AvgCommPred(t, i int) float64 {
	return tb.avgComm[tb.predOff[t]+i]
}

// EnsureAvgComm fills the per-edge average-communication table for the
// instance of the last Build, at most once per Build. The rank
// computations call it at entry; consumers that never read edge
// averages never pay for the pair loops.
func (tb *Tables) EnsureAvgComm() {
	if tb.avgCommBuilt {
		return
	}
	g := tb.src.Graph
	nT := g.NumTasks()
	nD := g.NumDeps()
	tb.avgComm = growF64(tb.avgComm, 2*nD)
	tb.succOff = growInt(tb.succOff, nT+1)
	tb.predOff = growInt(tb.predOff, nT+1)
	// The successor half first holds the edge costs, then is overwritten
	// in place four edges per pair walk.
	off := 0
	for t := 0; t < nT; t++ {
		tb.succOff[t] = off
		for i, d := range g.Succ[t] {
			tb.avgComm[off+i] = d.Cost
		}
		off += len(g.Succ[t])
	}
	tb.succOff[nT] = off
	for e := 0; e < nD; e += 4 {
		var c [4]float64
		n := copy(c[:], tb.avgComm[e:nD])
		a := tb.avgCommTime4(c)
		copy(tb.avgComm[e:e+n], a[:n])
	}
	for t := 0; t < nT; t++ {
		tb.predOff[t] = off
		for i, d := range g.Pred[t] {
			// Same edge (d.To, t): look the value up from the successor
			// half instead of recomputing the pair loop.
			u := d.To
			tb.avgComm[off+i] = tb.avgComm[tb.succOff[u]+succIndex(g, u, t)]
		}
		off += len(g.Pred[t])
	}
	tb.predOff[nT] = off
	tb.avgCommBuilt = true
}

// Link returns the link strength s(u, v). The diagonal is +Inf by the
// self-link convention; off-diagonal reads resolve through the
// exception list, falling back to the Build-time default.
func (tb *Tables) Link(u, v int) float64 {
	if u == v {
		return math.Inf(1)
	}
	if k, ok := tb.linkIdx(u, v); ok {
		return tb.linkVal[k]
	}
	return tb.linkDefault
}

// CommFree reports whether sending data from u to v costs nothing
// (same node or an infinitely strong link).
func (tb *Tables) CommFree(u, v int) bool {
	if u == v {
		return true
	}
	if k, ok := tb.linkIdx(u, v); ok {
		return tb.linkInv[k] == 0
	}
	return tb.invDefault == 0
}

// LinkExceptions returns the number of stored link-exception entries
// (both symmetric copies counted) — the |E| in the O(|V|+|E|) link
// storage bound. Exposed for the scale-tier memory assertions.
func (tb *Tables) LinkExceptions() int { return len(tb.linkCol) }

// MemoryBytes reports the bytes referenced by every table the receiver
// currently holds (slice lengths × element size; capacity slack and the
// modal-election scratch map are not counted). The scale benchmark gate
// asserts this stays O(|V|+|E|+|D|+|T|·|V|) — in particular that no
// |V|² term reappears.
func (tb *Tables) MemoryBytes() int {
	const w = 8 // float64 and int are both 8 bytes on 64-bit hosts
	f := len(tb.InvSpeed) + len(tb.AvgExec) + len(tb.Exec) +
		len(tb.avgComm) + len(tb.linkVal) + len(tb.linkInv)
	i := len(tb.Topo) + len(tb.indeg) + cap(tb.frontier) +
		len(tb.succOff) + len(tb.predOff) + len(tb.linkOff) + len(tb.linkCol)
	return w * (f + i)
}

// linkIdx locates the exception entry for the off-diagonal pair (u, v):
// it returns the entry's index and true when one is stored, or the
// would-be insertion position within row u (columns sorted ascending)
// and false when the pair takes the default.
func (tb *Tables) linkIdx(u, v int) (int, bool) {
	lo, hi := tb.linkOff[u], tb.linkOff[u+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tb.linkCol[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < tb.linkOff[u+1] && tb.linkCol[lo] == v {
		return lo, true
	}
	return lo, false
}

// growF64 returns s resized to n, reusing capacity.
func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInt returns s resized to n, reusing capacity.
func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// Build (re)computes every table for the instance, reusing the
// receiver's storage. It is safe to call on a zero Tables.
func (tb *Tables) Build(inst *Instance) {
	g, net := inst.Graph, inst.Net
	nT, nV := g.NumTasks(), net.NumNodes()
	tb.NTasks, tb.NNodes = nT, nV
	tb.Generation++

	tb.InvSpeed = growF64(tb.InvSpeed, nV)
	for v, s := range net.Speeds {
		tb.InvSpeed[v] = 1 / s
	}

	tb.buildLinks(net)

	// Per-task execution times and their average, with AvgExecTime's
	// exact summation order.
	tb.AvgExec = growF64(tb.AvgExec, nT)
	tb.Exec = growF64(tb.Exec, nT*nV)
	for t := 0; t < nT; t++ {
		cost := g.Tasks[t].Cost
		sum := 0.0
		for v := 0; v < nV; v++ {
			e := cost / net.Speeds[v]
			tb.Exec[t*nV+v] = e
			sum += e
		}
		tb.AvgExec[t] = sum / float64(nV)
	}

	// The per-edge average-communication table (AvgCommTime's exact pair
	// loop) is deferred to EnsureAvgComm: only the rank computations
	// read it, and many scheduler pairs never do.
	tb.avgCommBuilt = false
	tb.src = inst

	tb.buildTopo(g)
}

// buildLinks elects the modal off-diagonal strength as the implicit
// default and stores every other off-diagonal entry in the CSR
// exception list. For a homogeneous network (one strength everywhere,
// the common case at scale) the list is empty; for a fully
// heterogeneous small network every pair becomes an exception and the
// layout degenerates gracefully to a dense-equivalent edge list.
func (tb *Tables) buildLinks(net *Network) {
	nV := tb.NNodes
	if tb.defCount == nil {
		tb.defCount = make(map[float64]int)
	}
	clear(tb.defCount)
	for u := 0; u < nV; u++ {
		row := net.Links[u]
		for v := u + 1; v < nV; v++ {
			tb.defCount[row[v]]++
		}
	}
	// Deterministic election: highest pair count wins, ties go to the
	// smallest strength (map iteration order cannot leak through a total
	// order on (count, value)).
	def, defN := math.Inf(1), 0
	for w, n := range tb.defCount {
		if n > defN || (n == defN && w < def) {
			def, defN = w, n
		}
	}
	tb.linkDefault = def
	if math.IsInf(def, 1) {
		tb.invDefault = 0
	} else {
		tb.invDefault = 1 / def
	}

	tb.linkOff = growInt(tb.linkOff, nV+1)
	tb.linkCol = tb.linkCol[:0]
	tb.linkVal = tb.linkVal[:0]
	tb.linkInv = tb.linkInv[:0]
	for u := 0; u < nV; u++ {
		tb.linkOff[u] = len(tb.linkCol)
		row := net.Links[u]
		for v := 0; v < nV; v++ {
			if v == u {
				continue
			}
			w := row[v]
			if w == def {
				continue
			}
			inv := 0.0
			if !math.IsInf(w, 1) {
				inv = 1 / w
			}
			tb.linkCol = append(tb.linkCol, v)
			tb.linkVal = append(tb.linkVal, w)
			tb.linkInv = append(tb.linkInv, inv)
		}
	}
	tb.linkOff[nV] = len(tb.linkCol)
}

// succIndex returns the position of edge (u, v) in g.Succ[u]; it panics
// if the adjacency lists are inconsistent (Validate catches that first).
func succIndex(g *TaskGraph, u, v int) int {
	for i, d := range g.Succ[u] {
		if d.To == v {
			return i
		}
	}
	panic("graph: predecessor list references missing successor edge")
}

// predIndex returns the position of edge (u, v) in g.Pred[v]; it panics
// if the adjacency lists are inconsistent.
func predIndex(g *TaskGraph, v, u int) int {
	for i, d := range g.Pred[v] {
		if d.To == u {
			return i
		}
	}
	panic("graph: successor list references missing predecessor edge")
}

// Incremental maintenance.
//
// The Update* methods below patch a built Tables in place after a
// single in-place mutation of the source instance (the one passed to
// the last Build), instead of rebuilding every table. Each method
// reproduces Build's floating-point operations for the affected entries
// in Build's exact order, so a patched Tables is bit-identical to a
// freshly built one — the property the PISA annealer's incremental
// inner loop (internal/core) relies on and differential_test.go pins
// down. (Bit-identical here means every accessor returns identical
// values; the Build-time default election is never re-run, so the
// internal exception list may differ from a fresh Build's while every
// read agrees — sparse_test.go checks through the accessors.)
//
// Staleness contract — every mutation of the built instance, forward or
// back, calls its one patch:
//
//	Net.Speeds[v] changed        → UpdateNodeSpeed(v)
//	Net.SetLink(u, v, w)         → UpdateLinkSpeed(u, v)
//	Graph.Tasks[t].Cost changed  → UpdateTaskWeight(t)
//	Graph.SetDepCost(u, v, w)    → UpdateDepWeight(u, v)
//	dependency (u, v) added      → AddDep(u, v)
//	dependency (u, v) removed    → RemoveDep(u, v)
//
// Undoing a mutation is itself a mutation: restoring an old weight calls
// the same patch, and removing an added edge (or restoring a removed
// one) calls the inverse structural patch. No patch saves state for a
// later undo.
//
// Any other mutation — adding or removing tasks or nodes, bulk
// rewrites, pointing at a different instance — still requires a full
// Build (scheduler.Scratch.Prepare). The methods panic or corrupt
// silently if called on a Tables that was never built.
//
// Every method below bumps Generation unconditionally at entry — even
// the ones whose early-return paths touch no table storage (a
// dep-weight patch against an unbuilt average table, a diagonal link) —
// because the *instance* mutation that triggered the call has already
// invalidated anything memoized against the previous generation.

// UpdateNodeSpeed patches the tables after Net.Speeds[v] changed in
// place: the inverse speed, node v's column of the dense exec-time
// matrix, and every per-task average, each row re-summed left to right
// in Build's order so the average is bit-identical to a rebuild. Link
// and communication tables are untouched — speeds never enter them.
// O(|T|·|V|).
func (tb *Tables) UpdateNodeSpeed(v int) {
	tb.Generation++
	g, net := tb.src.Graph, tb.src.Net
	nV := tb.NNodes
	tb.InvSpeed[v] = 1 / net.Speeds[v]
	for t := 0; t < tb.NTasks; t++ {
		row := tb.Exec[t*nV : t*nV+nV]
		row[v] = g.Tasks[t].Cost / net.Speeds[v]
		sum := 0.0
		for _, e := range row {
			sum += e
		}
		tb.AvgExec[t] = sum / float64(nV)
	}
}

// UpdateLinkSpeed patches the tables after Net.SetLink(u, v, ·): both
// symmetric copies of the pair's entry in the sparse link storage. A
// pair whose new strength differs from the Build-time default gets an
// exception inserted (or its existing exception overwritten); a pair
// reverting to the default value keeps its exception slot with the
// default stored in it — reads cannot tell the difference, and the slot
// is reused when the annealer perturbs the same pair again, so the
// steady-state accept/reject cycle stays allocation-free once the
// touched pairs' slots exist. The per-edge average-communication table
// is invalidated rather than patched — every edge's average sums over
// all node pairs, so one link change touches all of it; the next
// EnsureAvgComm rebuilds it lazily (reusing storage) only if a
// scheduler actually reads it. O(log deg) per read, O(row shift) on
// first-time insertion.
func (tb *Tables) UpdateLinkSpeed(u, v int) {
	tb.Generation++
	if u == v {
		return
	}
	w := tb.src.Net.Links[u][v]
	inv := 0.0
	if !math.IsInf(w, 1) {
		inv = 1 / w
	}
	tb.setLinkEntry(u, v, w, inv)
	tb.setLinkEntry(v, u, w, inv)
	tb.avgCommBuilt = false
}

// setLinkEntry writes one directed copy of a link exception, inserting
// a new sorted CSR entry if the pair currently rides the default and
// the new value does not.
func (tb *Tables) setLinkEntry(u, v int, w, inv float64) {
	k, found := tb.linkIdx(u, v)
	if found {
		tb.linkVal[k] = w
		tb.linkInv[k] = inv
		return
	}
	if w == tb.linkDefault {
		return
	}
	n := len(tb.linkCol)
	tb.linkCol = append(tb.linkCol, 0)
	tb.linkVal = append(tb.linkVal, 0)
	tb.linkInv = append(tb.linkInv, 0)
	copy(tb.linkCol[k+1:], tb.linkCol[k:n])
	copy(tb.linkVal[k+1:], tb.linkVal[k:n])
	copy(tb.linkInv[k+1:], tb.linkInv[k:n])
	tb.linkCol[k] = v
	tb.linkVal[k] = w
	tb.linkInv[k] = inv
	for r := u + 1; r <= tb.NNodes; r++ {
		tb.linkOff[r]++
	}
}

// UpdateTaskWeight patches the tables after Graph.Tasks[t].Cost changed
// in place: task t's row of the dense exec-time matrix and its average,
// recomputed with Build's exact division-and-sum order. Communication
// tables are untouched — task costs never enter them. O(|V|).
func (tb *Tables) UpdateTaskWeight(t int) {
	tb.Generation++
	g, net := tb.src.Graph, tb.src.Net
	nV := tb.NNodes
	cost := g.Tasks[t].Cost
	sum := 0.0
	for v := 0; v < nV; v++ {
		e := cost / net.Speeds[v]
		tb.Exec[t*nV+v] = e
		sum += e
	}
	tb.AvgExec[t] = sum / float64(nV)
}

// UpdateDepWeight patches the tables after Graph.SetDepCost(u, v, ·):
// the edge's two aligned entries (successor- and predecessor-ordered) of
// the per-edge average-communication table, if it is currently built.
// An unbuilt table needs nothing — the lazy EnsureAvgComm reads the
// live instance. O(|V|²) for the one edge's pair loop, versus the full
// table's O(|D|·|V|²).
func (tb *Tables) UpdateDepWeight(u, v int) {
	tb.Generation++
	if !tb.avgCommBuilt {
		return
	}
	g := tb.src.Graph
	cost, _ := g.DepCost(u, v)
	a := tb.avgCommTime4([4]float64{cost})[0]
	tb.avgComm[tb.succOff[u]+succIndex(g, u, v)] = a
	tb.avgComm[tb.predOff[v]+predIndex(g, v, u)] = a
}

// AddDep patches the tables after dependency (u, v) was added to the
// source graph: the per-edge average table is invalidated (its offsets
// are aligned with the adjacency lists that just shifted) and the
// topological order re-run. Weight tables are untouched; edges never
// enter them. O(|T|+|D|) plus Kahn's frontier scans.
func (tb *Tables) AddDep(u, v int) {
	tb.Generation++
	tb.avgCommBuilt = false
	tb.buildTopo(tb.src.Graph)
}

// RemoveDep patches the tables after dependency (u, v) was removed from
// the source graph, exactly as AddDep does after one was added.
func (tb *Tables) RemoveDep(u, v int) {
	tb.AddDep(u, v)
}

// avgCommTime4 is Instance.AvgCommTime for four known edge costs at once
// against the sparse link storage: for each lane, the identical divisions
// in the identical (a, b) pair order as the dense test reference
// (DenseTables.avgCommTimeFlat), so every result is bit-identical. The
// four sums are independent accumulators over one walk of the pairs: a
// single edge's sum is a serial chain of |V|(|V|−1)/2 dependent adds,
// bound by add latency, and four chains fill the slots one leaves idle.
// Default pairs contribute cost/linkDefault, computed once per lane —
// dividing the same two bit patterns always yields the same bits, so one
// shared quotient added per default pair reproduces the dense per-pair
// division stream exactly. When the default strength is +Inf (free
// communication, e.g. the Chameleon networks) default pairs contribute
// nothing and the loop degenerates to a walk over the exception list
// with a closed-form pair count — O(|E|) instead of O(|V|²). A zero-cost
// lane yields 0 whatever the links, as does every lane when |V| < 2;
// callers with fewer than four edges pad with zero costs.
func (tb *Tables) avgCommTime4(c [4]float64) (out [4]float64) {
	nV := tb.NNodes
	if nV < 2 || c == [4]float64{} {
		return out
	}
	var s0, s1, s2, s3 float64
	if tb.invDefault == 0 {
		// Only exceptions can contribute; walk upper-triangle entries in
		// (row, col) order — exactly the order the dense pair loop visits
		// the contributing pairs.
		for a := 0; a < nV; a++ {
			for k := tb.linkOff[a]; k < tb.linkOff[a+1]; k++ {
				if tb.linkCol[k] > a && tb.linkInv[k] != 0 {
					w := tb.linkVal[k]
					s0 += c[0] / w
					s1 += c[1] / w
					s2 += c[2] / w
					s3 += c[3] / w
				}
			}
		}
	} else {
		q0, q1, q2, q3 := c[0]/tb.linkDefault, c[1]/tb.linkDefault, c[2]/tb.linkDefault, c[3]/tb.linkDefault
		for a := 0; a < nV; a++ {
			k, end := tb.linkOff[a], tb.linkOff[a+1]
			for k < end && tb.linkCol[k] <= a {
				k++
			}
			for b := a + 1; b < nV; b++ {
				if k < end && tb.linkCol[k] == b {
					if tb.linkInv[k] != 0 {
						w := tb.linkVal[k]
						s0 += c[0] / w
						s1 += c[1] / w
						s2 += c[2] / w
						s3 += c[3] / w
					}
					k++
				} else {
					s0 += q0
					s1 += q1
					s2 += q2
					s3 += q3
				}
			}
		}
	}
	count := float64(nV * (nV - 1) / 2)
	out = [4]float64{s0 / count, s1 / count, s2 / count, s3 / count}
	for i, ci := range c {
		if ci == 0 {
			out[i] = 0
		}
	}
	return out
}

// buildTopo mirrors TaskGraph.TopoOrder (Kahn, lowest index first) with
// reused buffers.
func (tb *Tables) buildTopo(g *TaskGraph) {
	n := g.NumTasks()
	tb.Topo = growInt(tb.Topo, n)[:0]
	tb.indeg = growInt(tb.indeg, n)
	tb.frontier = tb.frontier[:0]
	tb.TopoErr = nil
	for t := 0; t < n; t++ {
		tb.indeg[t] = len(g.Pred[t])
		if tb.indeg[t] == 0 {
			tb.frontier = append(tb.frontier, t)
		}
	}
	for len(tb.frontier) > 0 {
		best := 0
		for i := 1; i < len(tb.frontier); i++ {
			if tb.frontier[i] < tb.frontier[best] {
				best = i
			}
		}
		t := tb.frontier[best]
		tb.frontier = append(tb.frontier[:best], tb.frontier[best+1:]...)
		tb.Topo = append(tb.Topo, t)
		for _, d := range g.Succ[t] {
			tb.indeg[d.To]--
			if tb.indeg[d.To] == 0 {
				tb.frontier = append(tb.frontier, d.To)
			}
		}
	}
	if len(tb.Topo) != n {
		tb.TopoErr = cycleError(len(tb.Topo), n)
	}
}
