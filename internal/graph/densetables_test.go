package graph

import "math"

// DenseTables is the original node-squared Tables implementation, kept
// verbatim in this test file as the bit-identity reference for the
// edge-sparse Tables that replaced it. It stores the full |V|×|V| link-strength matrix and its
// inverse, so its memory is O(|V|²) — exactly the layout the scale tier
// cannot afford — but every derived quantity is computed with the same
// floating-point operations in the same order as Instance.AvgExecTime /
// Instance.AvgCommTime, which makes it the ground truth the sparse
// implementation is proven against (sparse_test.go drives both through
// Build, every incremental op, and reverts through those ops, comparing
// the whole accessor surface bit for bit).
//
// Production code uses Tables. DenseTables stays exported for the
// external test package in this directory (scale_test.go), which
// compares the two on a generated 10k-task instance from package
// datasets — an import package graph's own tests cannot make.
type DenseTables struct {
	NTasks, NNodes int

	Generation uint64

	// InvSpeed[v] is 1/s(v).
	InvSpeed []float64
	// LinkFlat is the dense row-major |V|×|V| link-strength matrix:
	// LinkFlat[u*NNodes+v] = s(u, v), +Inf on the diagonal.
	LinkFlat []float64
	// InvLink is the matching inverse matrix: 1/s(u, v), with 0 for the
	// diagonal and for infinitely strong links.
	InvLink []float64
	// AvgExec[t] equals Instance.AvgExecTime(t).
	AvgExec []float64
	// Exec is the dense row-major |T|×|V| execution-time matrix.
	Exec []float64
	// execPrefix mirrors Exec with left-to-right partial row sums.
	execPrefix []float64
	Topo       []int
	TopoErr    error

	avgComm      []float64
	succOff      []int
	predOff      []int
	avgCommBuilt bool
	src          *Instance

	topoPos []int

	kahn kahn
}

// AvgCommSucc returns the average communication time of the i-th
// successor edge of task t.
func (tb *DenseTables) AvgCommSucc(t, i int) float64 {
	return tb.avgComm[tb.succOff[t]+i]
}

// AvgCommPred returns the average communication time of the i-th
// predecessor edge of task t.
func (tb *DenseTables) AvgCommPred(t, i int) float64 {
	return tb.avgComm[tb.predOff[t]+i]
}

// EnsureAvgComm fills the per-edge average-communication table for the
// instance of the last Build, at most once per Build.
func (tb *DenseTables) EnsureAvgComm() {
	if tb.avgCommBuilt {
		return
	}
	g := tb.src.Graph
	nT := g.NumTasks()
	nD := g.NumDeps()
	tb.avgComm = growF64(tb.avgComm, 2*nD)
	tb.succOff = growInt(tb.succOff, nT+1)
	tb.predOff = growInt(tb.predOff, nT+1)
	off := 0
	for t := 0; t < nT; t++ {
		tb.succOff[t] = off
		for i, d := range g.Succ[t] {
			tb.avgComm[off+i] = tb.avgCommTimeFlat(d.Cost)
		}
		off += len(g.Succ[t])
	}
	tb.succOff[nT] = off
	for t := 0; t < nT; t++ {
		tb.predOff[t] = off
		for i, d := range g.Pred[t] {
			u := d.To
			tb.avgComm[off+i] = tb.avgComm[tb.succOff[u]+succIndex(g, u, t)]
		}
		off += len(g.Pred[t])
	}
	tb.predOff[nT] = off
	tb.avgCommBuilt = true
}

// Link returns the link strength s(u, v) from the flattened matrix.
func (tb *DenseTables) Link(u, v int) float64 { return tb.LinkFlat[u*tb.NNodes+v] }

// CommFree reports whether sending data from u to v costs nothing.
func (tb *DenseTables) CommFree(u, v int) bool { return tb.InvLink[u*tb.NNodes+v] == 0 }

// Build (re)computes every table for the instance, reusing the
// receiver's storage.
func (tb *DenseTables) Build(inst *Instance) {
	g, net := inst.Graph, inst.Net
	nT, nV := g.NumTasks(), net.NumNodes()
	tb.NTasks, tb.NNodes = nT, nV
	tb.Generation++

	tb.InvSpeed = growF64(tb.InvSpeed, nV)
	for v, s := range net.Speeds {
		tb.InvSpeed[v] = 1 / s
	}

	tb.LinkFlat = growF64(tb.LinkFlat, nV*nV)
	tb.InvLink = growF64(tb.InvLink, nV*nV)
	for u := 0; u < nV; u++ {
		row := net.Links[u]
		for v := 0; v < nV; v++ {
			w := row[v]
			tb.LinkFlat[u*nV+v] = w
			if u == v || math.IsInf(w, 1) {
				tb.InvLink[u*nV+v] = 0
			} else {
				tb.InvLink[u*nV+v] = 1 / w
			}
		}
	}

	tb.AvgExec = growF64(tb.AvgExec, nT)
	tb.Exec = growF64(tb.Exec, nT*nV)
	tb.execPrefix = growF64(tb.execPrefix, nT*nV)
	for t := 0; t < nT; t++ {
		cost := g.Tasks[t].Cost
		sum := 0.0
		for v := 0; v < nV; v++ {
			e := cost / net.Speeds[v]
			tb.Exec[t*nV+v] = e
			sum += e
			tb.execPrefix[t*nV+v] = sum
		}
		tb.AvgExec[t] = sum / float64(nV)
	}

	tb.avgCommBuilt = false
	tb.src = inst

	tb.buildTopo(g)
}

// UpdateNodeSpeed patches the tables after Net.Speeds[v] changed in
// place. Unlike Tables, which re-sums each row, it resumes the row sum
// from the stored prefix left of column v: the columns there are
// untouched, so the resumed additions are the ones Build performs, in
// Build's order.
func (tb *DenseTables) UpdateNodeSpeed(v int) {
	tb.Generation++
	g, net := tb.src.Graph, tb.src.Net
	nV := tb.NNodes
	tb.InvSpeed[v] = 1 / net.Speeds[v]
	for t := 0; t < tb.NTasks; t++ {
		row := t * nV
		sum := 0.0
		if v > 0 {
			sum = tb.execPrefix[row+v-1]
		}
		e := g.Tasks[t].Cost / net.Speeds[v]
		tb.Exec[row+v] = e
		sum += e
		tb.execPrefix[row+v] = sum
		for u := v + 1; u < nV; u++ {
			sum += tb.Exec[row+u]
			tb.execPrefix[row+u] = sum
		}
		tb.AvgExec[t] = sum / float64(nV)
	}
}

// UpdateLinkSpeed patches the tables after Net.SetLink(u, v, ·).
func (tb *DenseTables) UpdateLinkSpeed(u, v int) {
	tb.Generation++
	if u == v {
		return
	}
	net := tb.src.Net
	nV := tb.NNodes
	for _, e := range [2][2]int{{u, v}, {v, u}} {
		w := net.Links[e[0]][e[1]]
		tb.LinkFlat[e[0]*nV+e[1]] = w
		if math.IsInf(w, 1) {
			tb.InvLink[e[0]*nV+e[1]] = 0
		} else {
			tb.InvLink[e[0]*nV+e[1]] = 1 / w
		}
	}
	tb.avgCommBuilt = false
}

// UpdateTaskWeight patches the tables after Graph.Tasks[t].Cost changed.
func (tb *DenseTables) UpdateTaskWeight(t int) {
	tb.Generation++
	g, net := tb.src.Graph, tb.src.Net
	nV := tb.NNodes
	cost := g.Tasks[t].Cost
	sum := 0.0
	for v := 0; v < nV; v++ {
		e := cost / net.Speeds[v]
		tb.Exec[t*nV+v] = e
		sum += e
		tb.execPrefix[t*nV+v] = sum
	}
	tb.AvgExec[t] = sum / float64(nV)
}

// UpdateDepWeight patches the tables after Graph.SetDepCost(u, v, ·).
func (tb *DenseTables) UpdateDepWeight(u, v int) {
	tb.Generation++
	if !tb.avgCommBuilt {
		return
	}
	g := tb.src.Graph
	cost, _ := g.DepCost(u, v)
	a := tb.avgCommTimeFlat(cost)
	tb.avgComm[tb.succOff[u]+succIndex(g, u, v)] = a
	tb.avgComm[tb.predOff[v]+predIndex(g, v, u)] = a
}

// AddDep patches the tables after dependency (u, v) was added. Unlike
// Tables, which re-runs Kahn, it keeps the order when u already precedes
// v: Topo is the lexicographically smallest topological order, and an
// added constraint the order satisfies cannot exclude it.
func (tb *DenseTables) AddDep(u, v int) {
	tb.Generation++
	tb.avgCommBuilt = false
	if tb.TopoErr == nil && tb.topoPos[u] < tb.topoPos[v] {
		return
	}
	tb.buildTopo(tb.src.Graph)
}

// RemoveDep patches the tables after dependency (u, v) was removed.
// Kahn's greedy replay can only diverge where v newly joins the
// frontier, between its last remaining predecessor and its old
// position; if every task popped there has a smaller index than v, the
// order stands, otherwise Kahn re-runs.
func (tb *DenseTables) RemoveDep(u, v int) {
	tb.Generation++
	tb.avgCommBuilt = false
	if tb.TopoErr != nil {
		tb.buildTopo(tb.src.Graph)
		return
	}
	g := tb.src.Graph
	ready := 0
	for _, d := range g.Pred[v] {
		if p := tb.topoPos[d.To] + 1; p > ready {
			ready = p
		}
	}
	for i := ready; i < tb.topoPos[v]; i++ {
		if v < tb.Topo[i] {
			tb.buildTopo(g)
			return
		}
	}
}

// avgCommTimeFlat is Instance.AvgCommTime against the dense flattened tables —
// the canonical pair loop the sparse implementation must reproduce bit
// for bit.
func (tb *DenseTables) avgCommTimeFlat(cost float64) float64 {
	if cost == 0 {
		return 0
	}
	nV := tb.NNodes
	if nV < 2 {
		return 0
	}
	sum := 0.0
	count := 0
	for a := 0; a < nV; a++ {
		row := tb.LinkFlat[a*nV : a*nV+nV]
		inv := tb.InvLink[a*nV : a*nV+nV]
		for b := a + 1; b < nV; b++ {
			if inv[b] != 0 {
				sum += cost / row[b]
			}
			count++
		}
	}
	return sum / float64(count)
}

// buildTopo sorts with the package's Kahn loop, as Tables does.
func (tb *DenseTables) buildTopo(g *TaskGraph) {
	n := g.NumTasks()
	if tb.Topo, tb.TopoErr = tb.kahn.order(g, growInt(tb.Topo, n)); tb.TopoErr != nil {
		return
	}
	tb.topoPos = growInt(tb.topoPos, n)
	for i, t := range tb.Topo {
		tb.topoPos[t] = i
	}
}
