package core

import (
	"saga/internal/graph"
	"saga/internal/rng"
)

// perturbOp enumerates the six Section VI perturbation operators.
type perturbOp int

const (
	opNodeWeight perturbOp = iota
	opLinkWeight
	opTaskWeight
	opDepWeight
	opAddDep
	opRemoveDep
)

// enabledOps returns the operators permitted by the configuration.
func enabledOps(p PerturbOptions) []perturbOp {
	ops := []perturbOp{opTaskWeight}
	if !p.FixSpeeds {
		ops = append(ops, opNodeWeight)
	}
	if !p.FixLinks {
		ops = append(ops, opLinkWeight)
	}
	ops = append(ops, opDepWeight)
	if !p.FixStructure {
		ops = append(ops, opAddDep, opRemoveDep)
	}
	return ops
}

// undoRec records one applied perturbation so a rejected candidate can
// be rolled back in place: which operator actually fired (after
// fallbacks), where, and what it overwrote. For opRemoveDep the record
// also keeps the removed edge's adjacency positions — undo must restore
// slice order, not just membership, or Deps/DepAt indexing (and with it
// the RNG-driven edge picks of later iterations) would drift from the
// copy-based reference.
type undoRec struct {
	op     perturbOp
	a, b   int     // node index, task index, or edge endpoints (a → b)
	old    float64 // overwritten weight; removed edge's weight for opRemoveDep
	si, pi int     // adjacency positions of a removed edge
	// avg/avgOK hold the edge's pre-patch per-edge average (opDepWeight)
	// so revert restores it in O(1); snapOK records that applyTables
	// took an avgComm snapshot (opLinkWeight) into perturbState.avgSnap
	// so revert skips the O(|D|·|V|²) rebuild.
	avg    float64
	avgOK  bool
	snapOK bool
}

// perturbState is the per-worker mutable state behind the in-place
// annealing loop: the enabled-operator set, the undo log of the current
// candidate, and the reachability buffers the structural operators
// reuse. It lives in scheduler.Scratch extension state (see pisaState
// in pisa.go) so ownership follows the one-scratch-per-worker rule and
// the steady-state accept/reject cycle stays allocation-free.
type perturbState struct {
	ops     []perturbOp
	log     []undoRec
	reach   graph.ReachScratch
	avgSnap []float64 // avgComm snapshot buffer for link-op undo
}

func (ps *perturbState) push(u undoRec) { ps.log = append(ps.log, u) }

// perturbInPlace applies one randomly chosen perturbation to the
// instance in place, per Section VI: weight changes move a uniformly
// chosen weight by a uniform amount in ±Step (clamped to the configured
// range; network weights additionally floored at MinNetWeight), Add
// Dependency inserts a random acyclic edge, Remove Dependency deletes a
// random edge. Operators that cannot apply (no edges to remove, graph
// already transitively closed) fall through to a weight perturbation so
// every call changes something.
//
// The applied operator lands on ps.log (reset first) so revert can roll
// it back, and ps's buffers make the call allocation-free once warm.
// The RNG draw sequence is identical to refPerturb's (reference_test.go)
// for every graph state — that equivalence is what makes the in-place
// loop bit-identical to the copy-and-rebuild reference.
func perturbInPlace(inst *graph.Instance, r *rng.RNG, p PerturbOptions, ps *perturbState) {
	ps.log = ps.log[:0]
	op := ps.ops[r.Intn(len(ps.ops))]
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

// applyTables patches tab (built for inst) for every mutation on
// ps.log, per the graph.Tables staleness contract. Called once after
// perturbInPlace; it also stashes what revert needs to undo the patch
// cheaply — the pre-patch per-edge average for a dep-weight change, a
// snapshot of the whole built average table before a link change
// invalidates it — so a rejected candidate never re-runs a pair loop
// the accept path would not have run.
func applyTables(tab *graph.Tables, ps *perturbState) {
	for i := range ps.log {
		u := &ps.log[i]
		switch u.op {
		case opNodeWeight:
			tab.UpdateNodeSpeed(u.a)
		case opLinkWeight:
			ps.avgSnap, u.snapOK = tab.SnapshotAvgComm(ps.avgSnap)
			tab.UpdateLinkSpeed(u.a, u.b)
		case opTaskWeight:
			tab.UpdateTaskWeight(u.a)
		case opDepWeight:
			u.avg, u.avgOK = tab.AvgCommOf(u.a, u.b)
			tab.UpdateDepWeight(u.a, u.b)
		case opAddDep:
			tab.AddDep(u.a, u.b)
		case opRemoveDep:
			tab.RemoveDep(u.a, u.b)
		}
	}
}

// revert rolls the instance back across the undo log in reverse order
// and re-patches tab (skipped when nil) so instance and tables agree
// again. After revert the instance is byte-identical to its state
// before the matching perturbInPlace — the round-trip property
// undo_test.go proves per operator.
func revert(inst *graph.Instance, tab *graph.Tables, ps *perturbState) {
	for i := len(ps.log) - 1; i >= 0; i-- {
		u := &ps.log[i]
		switch u.op {
		case opNodeWeight:
			inst.Net.Speeds[u.a] = u.old
			if tab != nil {
				tab.UpdateNodeSpeed(u.a)
			}
		case opLinkWeight:
			inst.Net.SetLink(u.a, u.b, u.old)
			if tab != nil {
				tab.UpdateLinkSpeed(u.a, u.b)
				if u.snapOK {
					// Links are back in the snapshot's exact state; reuse
					// the saved table instead of rebuilding it.
					tab.RestoreAvgComm(ps.avgSnap)
				}
			}
		case opTaskWeight:
			inst.Graph.Tasks[u.a].Cost = u.old
			if tab != nil {
				tab.UpdateTaskWeight(u.a)
			}
		case opDepWeight:
			inst.Graph.SetDepCost(u.a, u.b, u.old)
			if tab != nil {
				if u.avgOK {
					tab.SetAvgComm(u.a, u.b, u.avg)
				} else {
					// The table was unbuilt at apply time; if the
					// evaluation built it since, it holds the perturbed
					// cost — recompute the one edge from the restored
					// instance (a no-op if still unbuilt).
					tab.UpdateDepWeight(u.a, u.b)
				}
			}
		case opAddDep:
			inst.Graph.RemoveDep(u.a, u.b) // the edge sits at the tail; removal restores the old lists
			if tab != nil {
				tab.RemoveDep(u.a, u.b)
			}
		case opRemoveDep:
			inst.Graph.RestoreDep(u.a, u.b, u.old, u.si, u.pi)
			if tab != nil {
				tab.AddDep(u.a, u.b)
			}
		}
	}
}

func clampRange(v float64, rng [2]float64, floor float64) float64 {
	if v < rng[0] {
		v = rng[0]
	}
	if v > rng[1] {
		v = rng[1]
	}
	if v < floor {
		v = floor
	}
	return v
}

// step scales the perturbation magnitude to the weight range: the paper
// moves weights by ±1/10 on a [0, 1] range, i.e. a tenth of the span.
func step(p PerturbOptions, rng [2]float64, r *rng.RNG) float64 {
	span := rng[1] - rng[0]
	if span <= 0 {
		span = 1
	}
	return r.Uniform(-p.Step, p.Step) * span
}

func applyNodeWeight(inst *graph.Instance, r *rng.RNG, p PerturbOptions, ps *perturbState) {
	v := r.Intn(inst.Net.NumNodes())
	old := inst.Net.Speeds[v]
	inst.Net.Speeds[v] = clampRange(old+step(p, p.Speed, r), p.Speed, p.MinNetWeight)
	ps.push(undoRec{op: opNodeWeight, a: v, old: old})
}

func applyLinkWeight(inst *graph.Instance, r *rng.RNG, p PerturbOptions, ps *perturbState) bool {
	n := inst.Net.NumNodes()
	if n < 2 {
		return false
	}
	u := r.Intn(n)
	v := r.Intn(n - 1)
	if v >= u {
		v++
	}
	old := inst.Net.Links[u][v]
	inst.Net.SetLink(u, v, clampRange(old+step(p, p.Link, r), p.Link, p.MinNetWeight))
	ps.push(undoRec{op: opLinkWeight, a: u, b: v, old: old})
	return true
}

func applyTaskWeight(inst *graph.Instance, r *rng.RNG, p PerturbOptions, ps *perturbState) {
	t := r.Intn(inst.Graph.NumTasks())
	old := inst.Graph.Tasks[t].Cost
	inst.Graph.Tasks[t].Cost = clampRange(old+step(p, p.TaskCost, r), p.TaskCost, 0)
	ps.push(undoRec{op: opTaskWeight, a: t, old: old})
}

func applyDepWeight(inst *graph.Instance, r *rng.RNG, p PerturbOptions, ps *perturbState) bool {
	nD := inst.Graph.NumDeps()
	if nD == 0 {
		return false
	}
	// DepAt(k) is Deps()[k] without materializing the slice; the Intn
	// draw matches the reference's deps[r.Intn(len(deps))] bit for bit.
	u, v := inst.Graph.DepAt(r.Intn(nD))
	old, _ := inst.Graph.DepCost(u, v)
	inst.Graph.SetDepCost(u, v, clampRange(old+step(p, p.DepCost, r), p.DepCost, 0))
	ps.push(undoRec{op: opDepWeight, a: u, b: v, old: old})
	return true
}

// applyAddDep picks a task uniformly at random and adds a dependency to
// another uniformly random task such that the edge is new and acyclic,
// with a uniform weight in the dependency range. It tries a bounded
// number of random pairs before giving up.
func applyAddDep(inst *graph.Instance, r *rng.RNG, p PerturbOptions, ps *perturbState) bool {
	g := inst.Graph
	n := g.NumTasks()
	if n < 2 {
		return false
	}
	const tries = 16
	for i := 0; i < tries; i++ {
		t := r.Intn(n)
		t2 := r.Intn(n - 1)
		if t2 >= t {
			t2++
		}
		if g.HasDep(t, t2) || ps.reach.Reaches(g, t2, t) {
			continue
		}
		g.AddDepUnchecked(t, t2, r.Uniform(p.DepCost[0], p.DepCost[1]))
		ps.push(undoRec{op: opAddDep, a: t, b: t2})
		return true
	}
	return false
}

func applyRemoveDep(inst *graph.Instance, r *rng.RNG, ps *perturbState) bool {
	nD := inst.Graph.NumDeps()
	if nD == 0 {
		return false
	}
	u, v := inst.Graph.DepAt(r.Intn(nD))
	cost, si, pi, ok := inst.Graph.TakeDep(u, v)
	if !ok {
		return false
	}
	ps.push(undoRec{op: opRemoveDep, a: u, b: v, old: cost, si: si, pi: pi})
	return true
}
