// Package graph defines the task-graph and network model from Section II
// of the PISA paper.
//
// A problem instance is a pair (N, G): G = (T, D) is a directed acyclic
// task graph whose tasks carry compute costs c(t) and whose dependencies
// carry data sizes c(t, t'); N = (V, E) is a complete undirected network
// whose nodes carry compute speeds s(v) and whose edges carry
// communication strengths s(v, v'). Under the related-machines model the
// execution time of t on v is c(t)/s(v) and the communication time of a
// dependency (t, t') sent from v to v' is c(t, t')/s(v, v').
package graph

import (
	"fmt"
	"math"
	"strings"
)

// Eps is the tolerance used for floating-point schedule comparisons
// throughout the repository.
const Eps = 1e-9

// ApproxLE reports whether a <= b within Eps.
func ApproxLE(a, b float64) bool { return a <= b+Eps }

// ApproxEq reports whether a == b within Eps.
func ApproxEq(a, b float64) bool { return math.Abs(a-b) <= Eps }

// Task is a single task: a name (for rendering and serialization) and a
// compute cost c(t) > 0.
type Task struct {
	Name string
	Cost float64
}

// Dep is a weighted dependency endpoint. In TaskGraph.Succ[u], To is the
// dependent task; in TaskGraph.Pred[v], To is the prerequisite task. Cost
// is the data size c(t, t').
type Dep struct {
	To   int
	Cost float64
}

// TaskGraph is a weighted DAG of tasks. Tasks are addressed by dense
// integer index into Tasks; adjacency is kept in both directions.
type TaskGraph struct {
	Tasks []Task
	Succ  [][]Dep
	Pred  [][]Dep
}

// NewTaskGraph returns an empty task graph.
func NewTaskGraph() *TaskGraph {
	return &TaskGraph{}
}

// AddTask appends a task and returns its index.
func (g *TaskGraph) AddTask(name string, cost float64) int {
	g.Tasks = append(g.Tasks, Task{Name: name, Cost: cost})
	g.Succ = append(g.Succ, nil)
	g.Pred = append(g.Pred, nil)
	return len(g.Tasks) - 1
}

// NumTasks returns |T|.
func (g *TaskGraph) NumTasks() int { return len(g.Tasks) }

// NumDeps returns |D|.
func (g *TaskGraph) NumDeps() int {
	n := 0
	for _, s := range g.Succ {
		n += len(s)
	}
	return n
}

// HasDep reports whether the dependency (u, v) exists.
func (g *TaskGraph) HasDep(u, v int) bool {
	for _, d := range g.Succ[u] {
		if d.To == v {
			return true
		}
	}
	return false
}

// DepCost returns the data size of dependency (u, v) and whether it
// exists.
func (g *TaskGraph) DepCost(u, v int) (float64, bool) {
	for _, d := range g.Succ[u] {
		if d.To == v {
			return d.Cost, true
		}
	}
	return 0, false
}

// AddDep inserts the dependency (u, v) with the given data size. It
// rejects self-loops, duplicate edges, out-of-range indices, and edges
// that would create a cycle.
func (g *TaskGraph) AddDep(u, v int, cost float64) error {
	if u < 0 || u >= len(g.Tasks) || v < 0 || v >= len(g.Tasks) {
		return fmt.Errorf("graph: dependency (%d, %d) out of range", u, v)
	}
	if u == v {
		return fmt.Errorf("graph: self-dependency on task %d", u)
	}
	if g.HasDep(u, v) {
		return fmt.Errorf("graph: duplicate dependency (%d, %d)", u, v)
	}
	if g.Reaches(v, u) {
		return fmt.Errorf("graph: dependency (%d, %d) would create a cycle", u, v)
	}
	g.Succ[u] = append(g.Succ[u], Dep{To: v, Cost: cost})
	g.Pred[v] = append(g.Pred[v], Dep{To: u, Cost: cost})
	return nil
}

// MustAddDep is AddDep that panics on error; intended for generators and
// tests building known-good structures.
func (g *TaskGraph) MustAddDep(u, v int, cost float64) {
	if err := g.AddDep(u, v, cost); err != nil {
		panic(err)
	}
}

// RemoveDep deletes the dependency (u, v). It reports whether the edge
// existed.
func (g *TaskGraph) RemoveDep(u, v int) bool {
	_, _, _, ok := g.TakeDep(u, v)
	return ok
}

// SetDepCost updates the data size of dependency (u, v). It reports
// whether the edge existed.
func (g *TaskGraph) SetDepCost(u, v int, cost float64) bool {
	found := false
	for i, d := range g.Succ[u] {
		if d.To == v {
			g.Succ[u][i].Cost = cost
			found = true
			break
		}
	}
	if !found {
		return false
	}
	for i, d := range g.Pred[v] {
		if d.To == u {
			g.Pred[v][i].Cost = cost
			break
		}
	}
	return true
}

// AddDepUnchecked appends dependency (u, v) without AddDep's validity
// checks. The caller must guarantee the edge is in range, new, not a
// self-loop, and acyclic — the PISA hot loop performs those checks
// itself with reusable buffers (ReachScratch) before calling. The edge
// lands at the tail of both adjacency lists, so a following
// RemoveDep(u, v) undoes the call byte-identically.
func (g *TaskGraph) AddDepUnchecked(u, v int, cost float64) {
	g.Succ[u] = append(g.Succ[u], Dep{To: v, Cost: cost})
	g.Pred[v] = append(g.Pred[v], Dep{To: u, Cost: cost})
}

// ReserveDeps gives each task t of g, whose tasks are all added and
// which has no dependency yet, adjacency rows with room for exactly
// out[t] successors and in[t] predecessors, carved from one allocation,
// so that a decoder's AddDepUnchecked calls fill them without growing.
// A row with no room stays nil, as AddTask leaves it. Each row's
// capacity ends where the next row begins, so a later append to one row
// reallocates it instead of writing into another.
func (g *TaskGraph) ReserveDeps(out, in []int) {
	n := len(g.Tasks)
	if n == 0 {
		return
	}
	rows := make([][]Dep, 2*n)
	g.Succ, g.Pred = rows[:n:n], rows[n:]
	total := 0
	for t := 0; t < n; t++ {
		total += out[t] + in[t]
	}
	deps := make([]Dep, total)
	for t := 0; t < n; t++ {
		if out[t] > 0 {
			g.Succ[t], deps = deps[:0:out[t]], deps[out[t]:]
		}
		if in[t] > 0 {
			g.Pred[t], deps = deps[:0:in[t]], deps[in[t]:]
		}
	}
}

// TakeDep removes dependency (u, v) like RemoveDep but also returns its
// cost and its positions in the two adjacency lists so RestoreDep can
// reinsert it exactly where it was. Adjacency order is part of an
// instance's identity — it determines Deps/DepAt indexing, the
// serialization byte stream, and the annealer's RNG-driven edge picks —
// so an undo must restore position, not merely membership.
func (g *TaskGraph) TakeDep(u, v int) (cost float64, si, pi int, ok bool) {
	si = -1
	for i, d := range g.Succ[u] {
		if d.To == v {
			si, cost = i, d.Cost
			break
		}
	}
	if si < 0 {
		return 0, 0, 0, false
	}
	pi = -1
	for i, d := range g.Pred[v] {
		if d.To == u {
			pi = i
			break
		}
	}
	if pi < 0 {
		return 0, 0, 0, false
	}
	g.Succ[u] = append(g.Succ[u][:si], g.Succ[u][si+1:]...)
	g.Pred[v] = append(g.Pred[v][:pi], g.Pred[v][pi+1:]...)
	return cost, si, pi, true
}

// RestoreDep reinserts dependency (u, v) at the adjacency positions a
// TakeDep returned, undoing the removal byte-identically. Called
// immediately after the matching TakeDep, the slices still hold the
// capacity the removal freed, so the insertion does not allocate.
func (g *TaskGraph) RestoreDep(u, v int, cost float64, si, pi int) {
	g.Succ[u] = insertDep(g.Succ[u], si, Dep{To: v, Cost: cost})
	g.Pred[v] = insertDep(g.Pred[v], pi, Dep{To: u, Cost: cost})
}

func insertDep(s []Dep, i int, d Dep) []Dep {
	s = append(s, Dep{})
	copy(s[i+1:], s[i:])
	s[i] = d
	return s
}

// DepAt returns the k-th dependency in successor-list order — the same
// indexing as Deps()[k] — without allocating. It panics if k is out of
// range.
func (g *TaskGraph) DepAt(k int) (u, v int) {
	for t, succ := range g.Succ {
		if k < len(succ) {
			return t, succ[k].To
		}
		k -= len(succ)
	}
	panic("graph: dependency index out of range")
}

// Deps returns every dependency as a (from, to) pair in successor-list
// order. The slice is freshly allocated.
func (g *TaskGraph) Deps() [][2]int {
	out := make([][2]int, 0, g.NumDeps())
	for u, succ := range g.Succ {
		for _, d := range succ {
			out = append(out, [2]int{u, d.To})
		}
	}
	return out
}

// Reaches reports whether there is a directed path from u to v (including
// u == v). A path needs an edge out of u and an edge into v, so when
// either is missing the answer is false before the DFS allocates — the
// case every AddDep of a forward-built graph (generators, decoders)
// hits, since its new edge's target has no successors yet. Otherwise it
// runs ReachScratch's DFS on fresh buffers.
func (g *TaskGraph) Reaches(u, v int) bool {
	if u == v {
		return true
	}
	if len(g.Succ[u]) == 0 || len(g.Pred[v]) == 0 {
		return false
	}
	var rs ReachScratch
	return rs.Reaches(g, u, v)
}

// ReachScratch is the allocation-free form of TaskGraph.Reaches: the
// visited set and DFS stack are reused across calls. A scratch is not
// safe for concurrent use; the PISA hot loop keeps one per worker
// (inside scheduler.Scratch's extension state).
type ReachScratch struct {
	seen  []bool
	stack []int
}

// Reaches reports whether there is a directed path from u to v in g
// (including u == v), by an iterative DFS over reused buffers.
func (rs *ReachScratch) Reaches(g *TaskGraph, u, v int) bool {
	if u == v {
		return true
	}
	n := len(g.Tasks)
	if cap(rs.seen) < n {
		rs.seen = make([]bool, n)
	}
	rs.seen = rs.seen[:n]
	for i := range rs.seen {
		rs.seen[i] = false
	}
	rs.stack = append(rs.stack[:0], u)
	rs.seen[u] = true
	for len(rs.stack) > 0 {
		x := rs.stack[len(rs.stack)-1]
		rs.stack = rs.stack[:len(rs.stack)-1]
		for _, d := range g.Succ[x] {
			if d.To == v {
				return true
			}
			if !rs.seen[d.To] {
				rs.seen[d.To] = true
				rs.stack = append(rs.stack, d.To)
			}
		}
	}
	return false
}

// Sources returns the tasks with no prerequisites.
func (g *TaskGraph) Sources() []int {
	var out []int
	for t := range g.Tasks {
		if len(g.Pred[t]) == 0 {
			out = append(out, t)
		}
	}
	return out
}

// Sinks returns the tasks with no dependents.
func (g *TaskGraph) Sinks() []int {
	var out []int
	for t := range g.Tasks {
		if len(g.Succ[t]) == 0 {
			out = append(out, t)
		}
	}
	return out
}

// TopoOrder returns a deterministic topological order (Kahn's algorithm,
// lowest index first). It returns an error if the graph contains a cycle.
func (g *TaskGraph) TopoOrder() ([]int, error) {
	n := len(g.Tasks)
	indeg := make([]int, n)
	for t := 0; t < n; t++ {
		indeg[t] = len(g.Pred[t])
	}
	// A simple ordered frontier keeps the result deterministic.
	var frontier []int
	for t := 0; t < n; t++ {
		if indeg[t] == 0 {
			frontier = append(frontier, t)
		}
	}
	order := make([]int, 0, n)
	for len(frontier) > 0 {
		// Pop the smallest index.
		best := 0
		for i := 1; i < len(frontier); i++ {
			if frontier[i] < frontier[best] {
				best = i
			}
		}
		t := frontier[best]
		frontier = append(frontier[:best], frontier[best+1:]...)
		order = append(order, t)
		for _, d := range g.Succ[t] {
			indeg[d.To]--
			if indeg[d.To] == 0 {
				frontier = append(frontier, d.To)
			}
		}
	}
	if len(order) != n {
		return nil, cycleError(len(order), n)
	}
	return order, nil
}

// cycleError is the shared cycle diagnostic of TopoOrder and
// Tables.Build.
func cycleError(ordered, n int) error {
	return fmt.Errorf("graph: cycle detected (%d of %d tasks ordered)", ordered, n)
}

// Validate checks structural invariants: non-negative finite task
// costs, mirrored adjacency, no self-loops, no duplicate dependencies,
// acyclicity. It is the one check a decoded graph gets: decoders range
// check each edge and add it with AddDepUnchecked, and leave the rest to
// Validate.
func (g *TaskGraph) Validate() error {
	for t, task := range g.Tasks {
		if task.Cost < 0 || math.IsNaN(task.Cost) || math.IsInf(task.Cost, 0) {
			return fmt.Errorf("graph: task %d has invalid cost %v", t, task.Cost)
		}
	}
	n := len(g.Tasks)
	// One buffer serves both passes: stamp[v] == u+1 marks v as already a
	// successor of u, then the first n ints count in-degrees for the cycle
	// check and the rest are its stack.
	work := make([]int, 2*n)
	stamp := work[:n]
	for u, succ := range g.Succ {
		for _, d := range succ {
			if d.To == u {
				return fmt.Errorf("graph: self-dependency on task %d", u)
			}
			if stamp[d.To] == u+1 {
				return fmt.Errorf("graph: duplicate dependency (%d, %d)", u, d.To)
			}
			stamp[d.To] = u + 1
			if d.Cost < 0 || math.IsNaN(d.Cost) {
				return fmt.Errorf("graph: dependency (%d, %d) has invalid cost %v", u, d.To, d.Cost)
			}
			c, ok := findDep(g.Pred[d.To], u)
			if !ok || c != d.Cost {
				return fmt.Errorf("graph: adjacency mismatch for dependency (%d, %d)", u, d.To)
			}
		}
	}
	for v, pred := range g.Pred {
		for _, d := range pred {
			if _, ok := g.DepCost(d.To, v); !ok {
				return fmt.Errorf("graph: predecessor list of %d references missing edge (%d, %d)", v, d.To, v)
			}
		}
	}
	// Kahn's algorithm in any order orders the same tasks as TopoOrder:
	// exactly those no cycle reaches.
	indeg, stack := work[:n], work[n:n]
	for t := range indeg {
		indeg[t] = len(g.Pred[t])
		if indeg[t] == 0 {
			stack = append(stack, t)
		}
	}
	ordered := 0
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ordered++
		for _, d := range g.Succ[t] {
			if indeg[d.To]--; indeg[d.To] == 0 {
				stack = append(stack, d.To)
			}
		}
	}
	if ordered != n {
		return cycleError(ordered, n)
	}
	return nil
}

func findDep(deps []Dep, to int) (float64, bool) {
	for _, d := range deps {
		if d.To == to {
			return d.Cost, true
		}
	}
	return 0, false
}

// CopyFrom makes g a deep copy of src, reusing g's existing slice
// storage where capacity allows. It is the allocation-free counterpart
// of Clone for hot loops (PISA reuses one candidate instance per
// annealing chain instead of cloning every iteration).
func (g *TaskGraph) CopyFrom(src *TaskGraph) {
	g.Tasks = append(g.Tasks[:0], src.Tasks...)
	g.Succ = copyAdjacency(g.Succ, src.Succ)
	g.Pred = copyAdjacency(g.Pred, src.Pred)
}

// copyAdjacency deep-copies src into dst reusing row capacity.
func copyAdjacency(dst, src [][]Dep) [][]Dep {
	if cap(dst) < len(src) {
		grown := make([][]Dep, len(src))
		copy(grown, dst[:cap(dst)])
		dst = grown
	} else {
		dst = dst[:len(src)]
	}
	for i, row := range src {
		dst[i] = append(dst[i][:0], row...)
	}
	return dst
}

// Clone returns a deep copy.
func (g *TaskGraph) Clone() *TaskGraph {
	c := &TaskGraph{
		Tasks: append([]Task(nil), g.Tasks...),
		Succ:  make([][]Dep, len(g.Succ)),
		Pred:  make([][]Dep, len(g.Pred)),
	}
	for i, s := range g.Succ {
		c.Succ[i] = append([]Dep(nil), s...)
	}
	for i, p := range g.Pred {
		c.Pred[i] = append([]Dep(nil), p...)
	}
	return c
}

// MeanDepCost returns the average dependency data size, or 0 if there are
// no dependencies.
func (g *TaskGraph) MeanDepCost() float64 {
	n, sum := 0, 0.0
	for _, succ := range g.Succ {
		for _, d := range succ {
			sum += d.Cost
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CopyNames gives the tasks' names storage of their own: one new string
// holding them all, each name a substring of it. A decoder that read the
// names into memory it reuses calls it on the tasks it hands out.
func CopyNames(tasks []Task) {
	var b strings.Builder
	size := 0
	for _, t := range tasks {
		size += len(t.Name)
	}
	b.Grow(size)
	for _, t := range tasks {
		b.WriteString(t.Name)
	}
	all := b.String()
	for i := range tasks {
		n := len(tasks[i].Name)
		tasks[i].Name, all = all[:n], all[n:]
	}
}
