package scheduler

import (
	"saga/internal/graph"
	"saga/internal/schedule"
)

// Scratch is the per-worker reusable state behind the allocation-free
// scheduling hot path: one builder, the precomputed instance tables, the
// rank/order/ready-set buffers every list scheduler needs, and a small
// pool of spare schedules for algorithms that compare candidates
// (Duplex, WBA, ensembles). A Scratch is NOT safe for concurrent use;
// give each worker goroutine its own (runner.MapState does exactly
// that).
//
// Buffer ownership: a value returned by a Scratch accessor (ranks,
// orders, the builder, the ready set) is valid until the next call to
// the same accessor — with one sharing caveat: ReadySet and
// TopoOrderByPriority use the same underlying frontier (the latter keeps
// its priority heap there and leaves it empty), so calling either
// invalidates a ready set borrowed from the other. Schedulers
// therefore consume what they borrow within one ScheduleScratch call
// and never retain scratch-owned memory in their results —
// ScheduleInto copies assignments into the caller-owned Schedule.
type Scratch struct {
	inst *graph.Instance // instance the tables are currently built for
	tab  graph.Tables

	// cache memoizes the rank vectors across the Schedule calls this
	// scratch serves, keyed on (instance pointer, tab.Generation) — see
	// EvalCache. The second scheduler of a target/baseline pair reuses
	// the first's ranks instead of recomputing them on identical tables.
	cache EvalCache

	builder schedule.Builder
	rs      ReadySet

	rankUp, rankDown, level []float64
	floats                  []float64
	bools                   []bool
	order                   []int

	// orderUp/orderDown/orderLevel hold the memoized priority topological
	// orders for the three rank vectors above, separate from the generic
	// order buffer so a CPoP-style Floats-priority sort (never memoized)
	// cannot clobber a memo another scheduler is about to hit.
	orderUp, orderDown, orderLevel []int

	pool []*schedule.Schedule // spare schedules (stack)

	// ext holds per-algorithm extension state keyed by algorithm name
	// (see Ext). The PISA annealer also parks its per-worker undo log
	// and reachability buffers here, so every piece of hot-loop mutable
	// state shares the scratch's one-per-worker ownership rule.
	ext map[string]any
}

// NewScratch returns an empty scratch; every buffer grows on first use
// and is reused afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// Prepare (re)builds the precomputed cost tables for inst, reusing the
// scratch's storage, and remembers inst as the tables' owner. Call it
// after mutating an instance in place, unless every mutation was
// mirrored through the tables' incremental Update*/AddDep/RemoveDep
// methods (the PISA annealer patches instead of rebuilding — see the
// staleness contract in graph.Tables); ScheduleInto calls it
// automatically when it sees a different instance pointer.
func (s *Scratch) Prepare(inst *graph.Instance) {
	s.tab.Build(inst)
	s.inst = inst
}

// Tables returns the precomputed tables for inst, rebuilding them only
// if the scratch last prepared a different instance pointer. Callers
// that mutate an instance between calls must Prepare first.
func (s *Scratch) Tables(inst *graph.Instance) *graph.Tables {
	if s.inst != inst {
		s.Prepare(inst)
	}
	return &s.tab
}

// Builder resets the scratch's builder for inst and returns it, bound
// to the precomputed tables so execution-time queries are table reads.
func (s *Scratch) Builder(inst *graph.Instance) *schedule.Builder {
	s.builder.ResetTables(inst, s.Tables(inst))
	return &s.builder
}

// ReadySet resets the scratch's ready set for g and returns it. The set
// shares storage with TopoOrderByPriority: calling that invalidates a
// borrowed ready set (and vice versa).
func (s *Scratch) ReadySet(g *graph.TaskGraph) *ReadySet {
	s.rs.Reset(g)
	return &s.rs
}

// UpwardRank is the scratch-buffered UpwardRank: same values, reused
// storage, memoized per (instance, table generation) — when the tables
// are unchanged since the last computation (the second scheduler of a
// PISA pair, ensemble members sharing a priority) the stored vector is
// returned without recomputation. The slice is valid until the next
// UpwardRank call on s; callers must not mutate it (every scheduler
// treats ranks as read-only priorities).
func (s *Scratch) UpwardRank(inst *graph.Instance) []float64 {
	tab := s.Tables(inst)
	if !s.cache.lookup(inst, tab.Generation, &s.cache.upOK) {
		s.rankUp = UpwardRankInto(inst, tab, s.rankUp)
	}
	return s.rankUp
}

// DownwardRank is the scratch-buffered DownwardRank, memoized like
// UpwardRank.
func (s *Scratch) DownwardRank(inst *graph.Instance) []float64 {
	tab := s.Tables(inst)
	if !s.cache.lookup(inst, tab.Generation, &s.cache.downOK) {
		s.rankDown = DownwardRankInto(inst, tab, s.rankDown)
	}
	return s.rankDown
}

// StaticLevel is the scratch-buffered StaticLevel, memoized like
// UpwardRank.
func (s *Scratch) StaticLevel(inst *graph.Instance) []float64 {
	tab := s.Tables(inst)
	if !s.cache.lookup(inst, tab.Generation, &s.cache.levelOK) {
		s.level = StaticLevelInto(inst, tab, s.level)
	}
	return s.level
}

// Floats returns a zeroed float buffer of length n distinct from the
// rank buffers (CPoP's combined priority, BIL's level matrix). The
// buffer is valid until the next Floats call on s.
func (s *Scratch) Floats(n int) []float64 {
	if cap(s.floats) < n {
		s.floats = make([]float64, n)
	}
	s.floats = s.floats[:n]
	for i := range s.floats {
		s.floats[i] = 0
	}
	return s.floats
}

// Bools returns a false-initialized bool buffer of length n (CPoP's
// critical-path membership set). Valid until the next Bools call on s.
func (s *Scratch) Bools(n int) []bool {
	if cap(s.bools) < n {
		s.bools = make([]bool, n)
	}
	s.bools = s.bools[:n]
	for i := range s.bools {
		s.bools[i] = false
	}
	return s.bools
}

// TopoOrderByPriority is the scratch-buffered TopoOrderByPriority: same
// order, reused frontier and order storage. The slice is valid until the
// next TopoOrderByPriority call on s with the same priority source; the
// frontier is shared with ReadySet, so a recomputing call invalidates a
// borrowed ready set.
//
// When the priority slice is one of the scratch's own memoized rank
// vectors (the buffer identity, not just equal values), the derived
// order is itself memoized per (instance, table generation): a HEFT
// evaluation right after another HEFT of the identical tables (the
// baseline of a same-family PISA pair, ensemble members sharing a rank)
// reuses the sorted order instead of re-running the priority Kahn. The
// guard requires the matching rank-valid flag, so a vector recomputed
// outside the cache (disabled mode) never vouches for a stale order.
func (s *Scratch) TopoOrderByPriority(g *graph.TaskGraph, priority []float64) []int {
	var buf *[]int
	var ok *bool
	if s.inst != nil && s.inst.Graph == g {
		switch {
		case sameFloatBuffer(priority, s.rankUp) && s.cache.upOK:
			buf, ok = &s.orderUp, &s.cache.topoUpOK
		case sameFloatBuffer(priority, s.rankDown) && s.cache.downOK:
			buf, ok = &s.orderDown, &s.cache.topoDownOK
		case sameFloatBuffer(priority, s.level) && s.cache.levelOK:
			buf, ok = &s.orderLevel, &s.cache.topoLevelOK
		}
	}
	if buf == nil {
		s.order = topoOrderByPriority(&s.rs, g, priority, s.order[:0])
		return s.order
	}
	if !s.cache.lookup(s.inst, s.tab.Generation, ok) {
		*buf = topoOrderByPriority(&s.rs, g, priority, (*buf)[:0])
	}
	return *buf
}

// sameFloatBuffer reports whether a and b are views of the identical
// backing array region (same base pointer, same length) — the memo key
// test that ties a priority argument back to a scratch-owned rank
// buffer without comparing values.
func sameFloatBuffer(a, b []float64) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// AcquireSchedule pops a spare schedule from the scratch's pool (or
// allocates the pool's first on cold start). Pair with ReleaseSchedule;
// acquire/release nest, so ensembles whose members also use spares
// compose safely.
func (s *Scratch) AcquireSchedule() *schedule.Schedule {
	if n := len(s.pool); n > 0 {
		out := s.pool[n-1]
		s.pool = s.pool[:n-1]
		return out
	}
	return &schedule.Schedule{}
}

// ReleaseSchedule returns a spare to the pool for reuse.
func (s *Scratch) ReleaseSchedule(sch *schedule.Schedule) {
	s.pool = append(s.pool, sch)
}

// Ext returns the per-algorithm extension state stored under key,
// creating it with mk on first use. Algorithms with state the generic
// scratch cannot know about (WBA's option list and RNGs, LMT's level
// buckets) keep it here so one Scratch serves every scheduler.
func (s *Scratch) Ext(key string, mk func() any) any {
	if v, ok := s.ext[key]; ok {
		return v
	}
	if s.ext == nil {
		s.ext = make(map[string]any, 4)
	}
	v := mk()
	s.ext[key] = v
	return v
}
