package scheduler

import (
	"sync"
	"sync/atomic"
)

// ScratchPool leases Scratch values to short-lived owners — the
// scheduling daemon's request handlers (internal/serve) lease one per
// request the way runner.MapState hands one per worker goroutine. The
// ownership rule is unchanged: between Get and Put the scratch belongs
// to exactly one goroutine; Put transfers ownership back and the caller
// must not touch the scratch again.
//
// Reuse across unrelated owners is safe by construction, not by
// clearing: every memoized value in a Scratch (tables, rank vectors,
// topo orders) is keyed on the instance pointer and table generation it
// was computed for, so a scratch that last served instance A can serve
// instance B next with no bleed — the first Tables call rebuilds, and
// Build bumps the generation that guards every cached rank. The
// concurrency suite in internal/serve hammers exactly this property
// under the race detector.
//
// Idle scratches wait in a free list, not a sync.Pool: a sync.Pool drops
// them at every garbage collection, and each one dropped is a scratch
// whose tables the next owner grows again from nothing. The list never
// holds more scratches than were leased at once, so the daemon, which
// leases only under one of its admission slots, allocates at most
// MaxConcurrent scratches in all.
type ScratchPool struct {
	mu    sync.Mutex
	idle  []*Scratch
	fresh atomic.Uint64
}

// Get leases a scratch, allocating a fresh one when none is idle.
func (p *ScratchPool) Get() *Scratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.idle); n > 0 {
		s := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return s
	}
	p.fresh.Add(1)
	return NewScratch()
}

// Put returns a leased scratch for reuse. The caller must own s and
// must not use it afterwards.
func (p *ScratchPool) Put(s *Scratch) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s != nil {
		p.idle = append(p.idle, s)
	}
}

// Fresh reports how many scratches Get allocated because none was idle
// — the daemon's /metrics surfaces it so a steady-state serving process
// can prove its request path stopped allocating scratch state.
func (p *ScratchPool) Fresh() uint64 { return p.fresh.Load() }
