// Package exact provides an exact branch-and-bound makespan solver. It
// backs two Table I schedulers: BruteForce (exhaustive optimum) and SMT,
// which in the paper drives an external SMT solver with binary search to
// find a (1+ε)-optimal schedule. Offline and stdlib-only, this package
// substitutes a pure-Go exact feasibility search for the SMT solver; the
// interface (binary search over a makespan deadline, exponential worst
// case, tiny-instance applicability) is identical. See DESIGN.md,
// substitution 1.
//
// The search branches over (ready task, node) placements, scheduling each
// placed task at its earliest feasible start. Every combination of
// assignment and per-node execution order is reachable this way, and for
// a fixed assignment and order, starting every task as early as possible
// is optimal — so the search space contains an optimal schedule.
//
// Three devices keep the search usable beyond toy sizes:
//
//   - HEFT warm start: a HEFT pass (Scratch.UpwardRank,
//     TopoOrderByPriority, Builder.BestEFTNode with insertion) seeds the
//     incumbent before the first branch, so the lower-bound prune cuts
//     against a realistic makespan from node one instead of +Inf.
//     Feasibility queries whose deadline the warm schedule already meets
//     return without searching at all.
//   - Dominance pruning: two partial schedules that placed the same task
//     set on the same nodes differ only in their per-task finish times;
//     if a previously seen state finishes every task no later than the
//     current one, the current branch cannot beat what the earlier
//     branch already explored and is cut. Sound because the remaining
//     search depends on the past only through task end times and node
//     availability, both monotone in the compared vector. Applied to
//     instances of at most 64 tasks (the placement set packs into one
//     word) with a bounded table.
//   - Iterative deepening-free DFS on one shared Builder: frames hold a
//     ready-list snapshot and a candidate cursor, and backtracking undoes
//     placements via Builder.Unplace in LIFO order. No per-branch clone,
//     so a 10k-deep dependency chain costs O(|T|) memory, not O(|T|²)
//     (chain-depth regression in exact_test.go).
package exact

import (
	"errors"
	"math"

	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// ErrBudget is returned when the search exceeds its node budget before
// proving optimality (or feasibility).
var ErrBudget = errors.New("exact: search budget exceeded")

// Options bounds the search.
type Options struct {
	// MaxNodes caps the number of candidate (task, node) placements the
	// search evaluates — every EFT evaluation counts, whether or not the
	// branch survives the bound checks, so the budget measures work done
	// rather than branches taken and trips even when warm-start pruning
	// closes the tree early. Zero means the default of 5 million.
	MaxNodes int64
}

func (o Options) maxNodes() int64 {
	if o.MaxNodes <= 0 {
		return 5_000_000
	}
	return o.MaxNodes
}

// maxDomEntries bounds the dominance table; past this the search keeps
// pruning against recorded states but stops recording new ones.
const maxDomEntries = 1 << 20

// LowerBound returns a makespan lower bound for the instance: the larger
// of the communication-free critical path under best-case speeds and the
// total-work bound (sum of costs over summed speeds).
func LowerBound(inst *graph.Instance) float64 {
	g, net := inst.Graph, inst.Net
	maxSpeed := 0.0
	sumSpeed := 0.0
	for _, s := range net.Speeds {
		if s > maxSpeed {
			maxSpeed = s
		}
		sumSpeed += s
	}
	// Critical path with every task at its fastest and no communication.
	order, err := g.TopoOrder()
	if err != nil {
		return 0
	}
	finish := make([]float64, g.NumTasks())
	cp := 0.0
	for _, t := range order {
		ready := 0.0
		for _, d := range g.Pred[t] {
			if finish[d.To] > ready {
				ready = finish[d.To]
			}
		}
		finish[t] = ready + g.Tasks[t].Cost/maxSpeed
		if finish[t] > cp {
			cp = finish[t]
		}
	}
	work := 0.0
	for _, t := range g.Tasks {
		work += t.Cost
	}
	return math.Max(cp, work/sumSpeed)
}

type domKey struct {
	mask   uint64 // placed-task set, bit t set iff t placed
	assign string // node index per placed task, ascending task order
}

type searcher struct {
	inst     *graph.Instance
	scr      *scheduler.Scratch // the warm start's, whose builder the search reuses
	deadline float64            // prune finishes beyond this; +Inf for pure optimization
	best     float64
	bestSch  schedule.Schedule
	haveBest bool
	nodes    int64
	maxNodes int64
	// remaining[t] is a lower bound on time from t's start to the end of
	// the schedule: communication-free critical path from t at max speed.
	remaining []float64

	// Iterative DFS state: one shared builder and ready set, a frame
	// stack, and an arena holding every live frame's ready snapshot.
	stack    []frame
	readyBuf []int

	// Dominance table (nil when the instance has more than 64 tasks).
	dom     map[domKey][]float64
	keyBuf  []byte
	endsBuf []float64
}

// frame is one node of the DFS tree: the ready frontier it branches
// over (a slice of the shared arena), a cursor over its (task, node)
// candidates, and the placement that created it (undone when the frame
// pops; -1 for the root).
type frame struct {
	base, n    int // readyBuf[base : base+n] is this frame's frontier
	ci         int // next candidate: task readyBuf[base+ci/nV], node ci%nV
	placedTask int
}

func newSearcher(inst *graph.Instance, deadline float64, opts Options) *searcher {
	s := &searcher{
		inst:     inst,
		scr:      scheduler.NewScratch(),
		deadline: deadline,
		best:     math.Inf(1),
		maxNodes: opts.maxNodes(),
	}
	g := inst.Graph
	maxSpeed := 0.0
	for _, sp := range inst.Net.Speeds {
		if sp > maxSpeed {
			maxSpeed = sp
		}
	}
	s.remaining = make([]float64, g.NumTasks())
	order, _ := g.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		tail := 0.0
		for _, d := range g.Succ[t] {
			if s.remaining[d.To] > tail {
				tail = s.remaining[d.To]
			}
		}
		s.remaining[t] = g.Tasks[t].Cost/maxSpeed + tail
	}
	if n := g.NumTasks(); n <= 64 {
		s.dom = make(map[domKey][]float64)
		s.keyBuf = make([]byte, 0, n)
		s.endsBuf = make([]float64, 0, n)
	}
	return s
}

// record captures the builder's complete schedule as the incumbent if
// it improves on the current best.
func (s *searcher) record(b *schedule.Builder) error {
	m := b.Makespan()
	if m >= s.best {
		return nil
	}
	if err := b.ScheduleInto(&s.bestSch); err != nil {
		return err
	}
	s.best = m
	s.haveBest = true
	return nil
}

// warmStart seeds the incumbent with a HEFT schedule: tasks in
// decreasing upward rank among the ready ones, each placed at its
// earliest finish with insertion. It is HEFT's construction written out,
// because the schedulers package depends on exact. Skipped for cyclic
// graphs; the search proper reports those through b.ScheduleInto.
func (s *searcher) warmStart() error {
	if s.scr.Tables(s.inst).TopoErr != nil {
		return nil
	}
	rank := s.scr.UpwardRank(s.inst)
	order := s.scr.TopoOrderByPriority(s.inst.Graph, rank)
	b := s.scr.Builder(s.inst)
	for _, t := range order {
		v, start := b.BestEFTNode(t, true)
		b.Place(t, v, start)
	}
	return s.record(b)
}

// dominatedOrRecord reports whether the builder's current partial state
// is dominated by an already-seen state with the same placement set and
// assignment (prune), recording the state otherwise. The compared value
// is the vector of placed-task end times in ascending task order: a
// stored vector componentwise <= the current one can reach every
// completion the current state can, at no later times.
func (s *searcher) dominatedOrRecord(b *schedule.Builder) bool {
	if s.dom == nil {
		return false
	}
	n := s.inst.Graph.NumTasks()
	mask := uint64(0)
	s.keyBuf = s.keyBuf[:0]
	s.endsBuf = s.endsBuf[:0]
	for t := 0; t < n; t++ {
		if !b.Placed(t) {
			continue
		}
		a := b.Assignment(t)
		mask |= 1 << uint(t)
		s.keyBuf = append(s.keyBuf, byte(a.Node))
		s.endsBuf = append(s.endsBuf, a.End)
	}
	key := domKey{mask: mask, assign: string(s.keyBuf)}
	if stored, ok := s.dom[key]; ok {
		le := true
		for i, e := range stored {
			if e > s.endsBuf[i] {
				le = false
				break
			}
		}
		if le {
			return true
		}
		ge := true
		for i, e := range stored {
			if e < s.endsBuf[i] {
				ge = false
				break
			}
		}
		if ge {
			copy(stored, s.endsBuf)
		}
		return false
	}
	if len(s.dom) < maxDomEntries {
		s.dom[key] = append([]float64(nil), s.endsBuf...)
	}
	return false
}

// push opens a DFS frame over the current ready frontier.
func (s *searcher) push(rs *scheduler.ReadySet, placedTask int) {
	base := len(s.readyBuf)
	s.readyBuf = append(s.readyBuf, rs.Ready()...)
	s.stack = append(s.stack, frame{base: base, n: len(s.readyBuf) - base, placedTask: placedTask})
}

// search explores placements depth-first over one shared builder,
// undoing each placement on backtrack. firstOnly stops at the first
// complete schedule meeting the deadline (feasibility mode).
func (s *searcher) search(b *schedule.Builder, rs *scheduler.ReadySet, firstOnly bool) error {
	nV := s.inst.Net.NumNodes()
	nT := s.inst.Graph.NumTasks()
	s.push(rs, -1)
	for len(s.stack) > 0 {
		f := &s.stack[len(s.stack)-1]
		if f.n == 0 && f.ci == 0 {
			// Empty frontier: a complete schedule (or a stuck cyclic
			// instance, which record surfaces as an error).
			f.ci = 1 // handle the leaf exactly once
			if b.NumPlaced() == nT || b.Makespan() < s.best {
				if err := s.record(b); err != nil {
					return err
				}
			}
		}
		descended := false
		for f.ci < f.n*nV {
			t := s.readyBuf[f.base+f.ci/nV]
			v := f.ci % nV
			f.ci++
			s.nodes++
			if s.nodes > s.maxNodes {
				return ErrBudget
			}
			start, finish, ok := b.EFT(t, v, false)
			if !ok {
				continue
			}
			// Bound: the branch's final makespan is at least the task's
			// own finish and at least start plus the communication-free
			// critical path from t at best speed. Prune branches that
			// cannot beat the incumbent or meet the deadline.
			lb := math.Max(start+s.remaining[t], finish)
			if lb >= s.best-graph.Eps || lb > s.deadline+graph.Eps {
				continue
			}
			b.Place(t, v, start)
			rs.Complete(t)
			if s.dominatedOrRecord(b) {
				rs.Uncomplete(t)
				b.Unplace(t)
				continue
			}
			s.push(rs, t)
			descended = true
			break
		}
		if descended {
			continue
		}
		// Frame exhausted: undo its placement and pop.
		if f.placedTask >= 0 {
			rs.Uncomplete(f.placedTask)
			b.Unplace(f.placedTask)
		}
		s.readyBuf = s.readyBuf[:f.base]
		s.stack = s.stack[:len(s.stack)-1]
		if firstOnly && s.haveBest && s.best <= s.deadline+graph.Eps {
			return nil
		}
	}
	return nil
}

// Solve returns a minimum-makespan schedule, searching exhaustively with
// branch-and-bound from an HEFT warm-start incumbent. It returns
// ErrBudget if the instance is too large for the node budget.
func Solve(inst *graph.Instance, opts Options) (*schedule.Schedule, error) {
	s := newSearcher(inst, math.Inf(1), opts)
	if err := s.warmStart(); err != nil {
		return nil, err
	}
	b := s.scr.Builder(inst)
	rs := scheduler.NewReadySet(inst.Graph)
	if err := s.search(b, rs, false); err != nil {
		return nil, err
	}
	if !s.haveBest {
		return nil, errors.New("exact: no schedule found")
	}
	return &s.bestSch, nil
}

// Feasible reports whether a schedule with makespan <= deadline exists,
// returning one if so. A warm-start schedule already meeting the
// deadline short-circuits the search entirely.
func Feasible(inst *graph.Instance, deadline float64, opts Options) (*schedule.Schedule, bool, error) {
	s := newSearcher(inst, deadline, opts)
	if err := s.warmStart(); err != nil {
		return nil, false, err
	}
	if s.haveBest && s.best <= deadline+graph.Eps {
		return &s.bestSch, true, nil
	}
	b := s.scr.Builder(inst)
	rs := scheduler.NewReadySet(inst.Graph)
	if err := s.search(b, rs, true); err != nil {
		return nil, false, err
	}
	if s.haveBest && s.best <= deadline+graph.Eps {
		return &s.bestSch, true, nil
	}
	return nil, false, nil
}
