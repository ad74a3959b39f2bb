// Package scheduler defines the common interface every scheduling
// algorithm implements, a registry used by the CLI and the experiment
// drivers, and the shared priority computations (upward rank, downward
// rank, static level) that the list schedulers build on.
//
// It also owns Scratch, the per-worker bundle of reusable hot-path
// buffers (precomputed graph.Tables, the schedule.Builder arena,
// rank/order/ready-set slices, per-algorithm extension state) and its
// EvalCache, which memoizes the rank vectors per (instance, table
// generation) so consecutive schedulers evaluating identical tables —
// a PISA target/baseline pair — share one rank computation. The two
// Scratch invariants: one per goroutine, never shared — runner.MapState
// hands each worker its own — and scratch state must never influence
// results, only who allocates; sweeps stay bit-identical with or
// without one (and with the cache on or off).
package scheduler

import (
	"fmt"
	"sort"

	"saga/internal/graph"
	"saga/internal/schedule"
)

// Scheduler is the common interface for every algorithm (Table I of the
// paper). Schedule must return a schedule that satisfies
// schedule.Validate for any valid instance, or an error if the instance
// is outside the algorithm's supported size (BruteForce, SMT).
type Scheduler interface {
	Name() string
	Schedule(inst *graph.Instance) (*schedule.Schedule, error)
}

// Requirements describes the network homogeneity an algorithm was
// designed for. PISA uses it to restrict perturbations (Section VI): for
// algorithms designed for homogeneous node speeds the node weights are
// pinned to 1, and likewise for homogeneous link strengths.
type Requirements struct {
	HomogeneousNodes bool
	HomogeneousLinks bool
}

// Constrained is implemented by schedulers with homogeneity requirements.
type Constrained interface {
	Requirements() Requirements
}

// RequirementsOf returns the scheduler's requirements, or the zero value
// (fully heterogeneous) if it declares none.
func RequirementsOf(s Scheduler) Requirements {
	if c, ok := s.(Constrained); ok {
		return c.Requirements()
	}
	return Requirements{}
}

// ScratchScheduler is implemented by algorithms whose Schedule can run
// against caller-owned reusable state: the precomputed tables, builder
// and buffers of a Scratch, writing the result into a caller-owned
// Schedule. A warm (scratch, out) pair makes the whole call
// allocation-free, which is what the PISA inner loop needs. The
// schedules produced are bit-identical to the plain Schedule path.
type ScratchScheduler interface {
	Scheduler
	ScheduleScratch(inst *graph.Instance, scr *Scratch, out *schedule.Schedule) error
}

// ScheduleInto runs s on inst, reusing scr and writing into out. It
// takes the allocation-free path when s implements ScratchScheduler and
// falls back to a plain Schedule call (copying the result into out)
// otherwise, so callers can thread scratch through mixed rosters.
func ScheduleInto(s Scheduler, inst *graph.Instance, scr *Scratch, out *schedule.Schedule) error {
	if ss, ok := s.(ScratchScheduler); ok {
		return ss.ScheduleScratch(inst, scr, out)
	}
	sch, err := s.Schedule(inst)
	if err != nil {
		return err
	}
	out.CopyFrom(sch)
	return nil
}

// RunScratch is the plain-Schedule implementation shared by every
// scratch-aware algorithm: a fresh scratch and schedule per call. The
// single code path guarantees Schedule and ScheduleScratch cannot
// diverge.
func RunScratch(s ScratchScheduler, inst *graph.Instance) (*schedule.Schedule, error) {
	out := &schedule.Schedule{}
	if err := s.ScheduleScratch(inst, NewScratch(), out); err != nil {
		return nil, err
	}
	return out, nil
}

// Func adapts a plain function into a Scheduler.
type Func struct {
	SchedName string
	Fn        func(*graph.Instance) (*schedule.Schedule, error)
}

// Name implements Scheduler.
func (f Func) Name() string { return f.SchedName }

// Schedule implements Scheduler.
func (f Func) Schedule(inst *graph.Instance) (*schedule.Schedule, error) { return f.Fn(inst) }

// registry maps scheduler names to factories.
var registry = map[string]func() Scheduler{}

// Register adds a scheduler factory under its name. It panics on
// duplicates; registration happens from package init functions.
func Register(name string, factory func() Scheduler) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("scheduler: duplicate registration of %q", name))
	}
	registry[name] = factory
}

// New instantiates a registered scheduler by name.
func New(name string) (Scheduler, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("scheduler: unknown scheduler %q", name)
	}
	return f(), nil
}

// Names returns all registered scheduler names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// UpwardRank computes HEFT's rank_u for every task: the average execution
// time of the task plus the maximum over successors of average
// communication time plus the successor's rank. Sink tasks have rank
// equal to their average execution time.
func UpwardRank(inst *graph.Instance) []float64 {
	var tab graph.Tables
	tab.Build(inst)
	return UpwardRankInto(inst, &tab, nil)
}

// UpwardRankInto is UpwardRank reading the precomputed tables and
// writing into dst (grown as needed) — the allocation-free hot path.
func UpwardRankInto(inst *graph.Instance, tab *graph.Tables, dst []float64) []float64 {
	g := inst.Graph
	rank := growFloats(dst, g.NumTasks())
	if tab.TopoErr != nil {
		panic("scheduler: UpwardRank on cyclic graph: " + tab.TopoErr.Error())
	}
	tab.EnsureAvgComm()
	order := tab.Topo
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		best := 0.0
		for j, d := range g.Succ[t] {
			v := tab.AvgCommSucc(t, j) + rank[d.To]
			if v > best {
				best = v
			}
		}
		rank[t] = tab.AvgExec[t] + best
	}
	return rank
}

// DownwardRank computes CPoP's rank_d for every task: the length of the
// longest average-time path from an entry task to (but not including)
// the task itself. Entry tasks have rank 0.
func DownwardRank(inst *graph.Instance) []float64 {
	var tab graph.Tables
	tab.Build(inst)
	return DownwardRankInto(inst, &tab, nil)
}

// DownwardRankInto is DownwardRank reading the precomputed tables and
// writing into dst.
func DownwardRankInto(inst *graph.Instance, tab *graph.Tables, dst []float64) []float64 {
	g := inst.Graph
	rank := growFloats(dst, g.NumTasks())
	if tab.TopoErr != nil {
		panic("scheduler: DownwardRank on cyclic graph: " + tab.TopoErr.Error())
	}
	tab.EnsureAvgComm()
	for _, t := range tab.Topo {
		best := 0.0
		for j, d := range g.Pred[t] {
			u := d.To
			v := rank[u] + tab.AvgExec[u] + tab.AvgCommPred(t, j)
			if v > best {
				best = v
			}
		}
		rank[t] = best
	}
	return rank
}

// StaticLevel computes the communication-free static level used by
// GDL/DLS and FCP: SL(t) = avg exec(t) + max over successors SL(s).
func StaticLevel(inst *graph.Instance) []float64 {
	var tab graph.Tables
	tab.Build(inst)
	return StaticLevelInto(inst, &tab, nil)
}

// StaticLevelInto is StaticLevel reading the precomputed tables and
// writing into dst.
func StaticLevelInto(inst *graph.Instance, tab *graph.Tables, dst []float64) []float64 {
	g := inst.Graph
	sl := growFloats(dst, g.NumTasks())
	if tab.TopoErr != nil {
		panic("scheduler: StaticLevel on cyclic graph: " + tab.TopoErr.Error())
	}
	order := tab.Topo
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		best := 0.0
		for _, d := range g.Succ[t] {
			if sl[d.To] > best {
				best = sl[d.To]
			}
		}
		sl[t] = tab.AvgExec[t] + best
	}
	return sl
}

// growFloats returns dst resized to n, reusing capacity.
func growFloats(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// TopoOrderByPriority returns a topological order of g that always picks,
// among the currently ready tasks, the one with the highest priority
// (ties toward the lower task index). For priorities that strictly
// decrease along edges — upward rank on graphs with positive task costs —
// this coincides with a plain descending sort, but unlike a plain sort it
// remains a valid topological order when zero-cost tasks produce rank
// ties (which PISA's weight perturbations readily create).
func TopoOrderByPriority(g *graph.TaskGraph, priority []float64) []int {
	return topoOrderByPriority(&ReadySet{}, g, priority, make([]int, 0, g.NumTasks()))
}

// topoOrderByPriority appends the priority topological order to dst,
// resetting the caller's ready set for g and leaving it empty (the
// buffer-reuse core shared with Scratch.TopoOrderByPriority).
//
// The frontier is a binary heap in the ready set's own storage, ordered
// by (priority descending, task index ascending). On finite priorities
// that is a strict total order whose first element is exactly the task
// a left-to-right scan of the index-sorted frontier keeps (the first
// maximum; +0 and −0 compare equal in both), so every step pops the
// task the scan would pick, at O(log width) instead of O(width).
func topoOrderByPriority(rs *ReadySet, g *graph.TaskGraph, priority []float64, dst []int) []int {
	rs.Reset(g)
	h := prioHeap{items: rs.ready, prio: priority}
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for len(h.items) > 0 {
		t := h.pop()
		dst = append(dst, t)
		for _, d := range g.Succ[t] {
			rs.pending[d.To]--
			if rs.pending[d.To] == 0 {
				h.push(d.To)
			}
		}
	}
	rs.ready = h.items
	if len(dst) != g.NumTasks() {
		panic("scheduler: TopoOrderByPriority on cyclic graph")
	}
	return dst
}

// prioHeap is topoOrderByPriority's frontier: a binary heap of task
// indices whose root is the highest-priority task, lowest index on ties.
type prioHeap struct {
	items []int
	prio  []float64
}

// before reports whether task a pops before task b.
func (h *prioHeap) before(a, b int) bool {
	pa, pb := h.prio[a], h.prio[b]
	return pa > pb || (pa == pb && a < b)
}

func (h *prioHeap) push(t int) {
	h.items = append(h.items, t)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(t, h.items[p]) {
			break
		}
		h.items[i] = h.items[p]
		i = p
	}
	h.items[i] = t
}

func (h *prioHeap) pop() int {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

// down sifts the item at i toward the leaves until the heap order holds.
func (h *prioHeap) down(i int) {
	items := h.items
	t := items[i]
	for {
		c := 2*i + 1
		if c >= len(items) {
			break
		}
		if r := c + 1; r < len(items) && h.before(items[r], items[c]) {
			c = r
		}
		if !h.before(items[c], t) {
			break
		}
		items[i] = items[c]
		i = c
	}
	items[i] = t
}

// ReadySet maintains the frontier of schedulable tasks (all prerequisites
// placed) for schedulers that make dynamic choices among ready tasks.
type ReadySet struct {
	g       *graph.TaskGraph
	pending []int // remaining unplaced predecessor count per task
	ready   []int // current frontier, kept sorted by task index (topoOrderByPriority's heap while it runs)
}

// NewReadySet builds the frontier for the graph: initially its source
// tasks.
func NewReadySet(g *graph.TaskGraph) *ReadySet {
	rs := &ReadySet{}
	rs.Reset(g)
	return rs
}

// Reset rebinds the set to g and rebuilds the initial frontier, reusing
// the set's storage.
func (rs *ReadySet) Reset(g *graph.TaskGraph) {
	n := g.NumTasks()
	rs.g = g
	if cap(rs.pending) < n {
		rs.pending = make([]int, n)
	} else {
		rs.pending = rs.pending[:n]
	}
	rs.ready = rs.ready[:0]
	for t := 0; t < n; t++ {
		rs.pending[t] = len(g.Pred[t])
		if rs.pending[t] == 0 {
			rs.ready = append(rs.ready, t)
		}
	}
}

// Ready returns the current frontier (sorted by task index). The slice is
// owned by the set; callers must not mutate it.
func (rs *ReadySet) Ready() []int { return rs.ready }

// Empty reports whether no tasks remain ready.
func (rs *ReadySet) Empty() bool { return len(rs.ready) == 0 }

// Uncomplete reverses Complete(t): successors that became ready when t
// completed leave the frontier and t rejoins it. It is used by
// backtracking searches (package exact). The caller must undo completions
// in LIFO order relative to Complete calls.
func (rs *ReadySet) Uncomplete(t int) {
	for _, d := range rs.g.Succ[t] {
		if rs.pending[d.To] == 0 {
			for i, x := range rs.ready {
				if x == d.To {
					rs.ready = append(rs.ready[:i], rs.ready[i+1:]...)
					break
				}
			}
		}
		rs.pending[d.To]++
	}
	i := sort.SearchInts(rs.ready, t)
	rs.ready = append(rs.ready, 0)
	copy(rs.ready[i+1:], rs.ready[i:])
	rs.ready[i] = t
}

// Complete marks task t as placed, removing it from the frontier and
// adding any newly ready successors.
func (rs *ReadySet) Complete(t int) {
	for i, x := range rs.ready {
		if x == t {
			rs.ready = append(rs.ready[:i], rs.ready[i+1:]...)
			break
		}
	}
	for _, d := range rs.g.Succ[t] {
		rs.pending[d.To]--
		if rs.pending[d.To] == 0 {
			// Insert keeping the frontier sorted for determinism.
			i := sort.SearchInts(rs.ready, d.To)
			rs.ready = append(rs.ready, 0)
			copy(rs.ready[i+1:], rs.ready[i:])
			rs.ready[i] = d.To
		}
	}
}
