package scheduler

import (
	"testing"

	"saga/internal/graph"
	"saga/internal/rng"
)

// cacheTestInstance builds a randomized layered DAG over a heterogeneous
// network, sized so every rank vector has real structure to diverge on.
func cacheTestInstance(r *rng.RNG) *graph.Instance {
	g := graph.NewTaskGraph()
	const layers, width = 4, 4
	for l := 0; l < layers; l++ {
		for w := 0; w < width; w++ {
			t := g.AddTask("t", 0.1+r.Float64())
			if l > 0 {
				for k := 0; k < 1+r.Intn(2); k++ {
					p := (l-1)*width + r.Intn(width)
					if !g.HasDep(p, t) {
						g.MustAddDep(p, t, 0.1+r.Float64())
					}
				}
			}
		}
	}
	net := graph.NewNetwork(4)
	for v := range net.Speeds {
		net.Speeds[v] = 0.2 + r.Float64()
		for u := v + 1; u < net.NumNodes(); u++ {
			net.SetLink(v, u, 0.2+r.Float64())
		}
	}
	return graph.NewInstance(g, net)
}

func assertSameValues(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestEvalCacheHitsWithinPair pins the tentpole behavior: with the
// tables unchanged between calls, the second and every later rank read
// is served from the cache (hit counters advance, values identical to
// the uncached computation), exactly what the baseline scheduler of a
// PISA pair sees after the target ranked the same candidate.
func TestEvalCacheHitsWithinPair(t *testing.T) {
	inst := cacheTestInstance(rng.New(0xca11))
	s := NewScratch()

	first := s.UpwardRank(inst)
	want := NewScratch().UpwardRank(inst) // fresh tables, no cache
	assertSameValues(t, "UpwardRank(miss)", first, want)
	if c := s.EvalCache(); c.Misses != 1 || c.Hits != 0 {
		t.Fatalf("after first read: hits=%d misses=%d, want 0/1", c.Hits, c.Misses)
	}

	second := s.UpwardRank(inst)
	assertSameValues(t, "UpwardRank(hit)", second, want)
	if c := s.EvalCache(); c.Hits != 1 {
		t.Fatalf("second identical read missed the cache (hits=%d misses=%d)", c.Hits, c.Misses)
	}

	// Distinct vectors have distinct memo slots under the same key.
	assertSameValues(t, "DownwardRank(miss)", s.DownwardRank(inst), NewScratch().DownwardRank(inst))
	assertSameValues(t, "StaticLevel(miss)", s.StaticLevel(inst), NewScratch().StaticLevel(inst))
	assertSameValues(t, "DownwardRank(hit)", s.DownwardRank(inst), NewScratch().DownwardRank(inst))
	if c := s.EvalCache(); c.Hits != 2 || c.Misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 2/3", c.Hits, c.Misses)
	}
}

// TestEvalCacheStaleReadsImpossible is the invalidation property test:
// a long random walk of in-place mutations, each mirrored through the
// matching Tables patch per the staleness contract, after which the
// cached rank reads must equal a from-scratch computation every single
// time. Any patch path that failed to bump Generation would serve the
// previous candidate's ranks here.
func TestEvalCacheStaleReadsImpossible(t *testing.T) {
	r := rng.New(0x57a1e)
	inst := cacheTestInstance(r)
	s := NewScratch()
	tab := s.Tables(inst)

	check := func(step int) {
		t.Helper()
		assertSameValues(t, "UpwardRank", s.UpwardRank(inst), NewScratch().UpwardRank(inst))
		assertSameValues(t, "DownwardRank", s.DownwardRank(inst), NewScratch().DownwardRank(inst))
		assertSameValues(t, "StaticLevel", s.StaticLevel(inst), NewScratch().StaticLevel(inst))
	}

	check(-1)
	for step := 0; step < 300; step++ {
		switch r.Intn(6) {
		case 0:
			v := r.Intn(inst.Net.NumNodes())
			inst.Net.Speeds[v] = 0.2 + r.Float64()
			tab.UpdateNodeSpeed(v)
		case 1:
			n := inst.Net.NumNodes()
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			inst.Net.SetLink(u, v, 0.2+r.Float64())
			tab.UpdateLinkSpeed(u, v)
		case 2:
			task := r.Intn(inst.Graph.NumTasks())
			inst.Graph.Tasks[task].Cost = 0.1 + r.Float64()
			tab.UpdateTaskWeight(task)
		case 3:
			if inst.Graph.NumDeps() == 0 {
				continue
			}
			u, v := inst.Graph.DepAt(r.Intn(inst.Graph.NumDeps()))
			inst.Graph.SetDepCost(u, v, 0.1+r.Float64())
			tab.UpdateDepWeight(u, v)
		case 4:
			n := inst.Graph.NumTasks()
			u, v := r.Intn(n), r.Intn(n)
			if u == v || inst.Graph.HasDep(u, v) || inst.Graph.Reaches(v, u) {
				continue
			}
			inst.Graph.AddDepUnchecked(u, v, 0.1+r.Float64())
			tab.AddDep(u, v)
		case 5:
			if inst.Graph.NumDeps() == 0 {
				continue
			}
			u, v := inst.Graph.DepAt(r.Intn(inst.Graph.NumDeps()))
			inst.Graph.RemoveDep(u, v)
			tab.RemoveDep(u, v)
		}
		check(step)
	}
}

// TestEvalCacheDisabled pins the reference-path escape hatch: with the
// cache off, every read recomputes (no hits), values are unchanged, and
// re-enabling restores memoization without any staleness window.
func TestEvalCacheDisabled(t *testing.T) {
	inst := cacheTestInstance(rng.New(0xd15))
	s := NewScratch()
	if prev := s.SetEvalCache(false); !prev {
		t.Fatal("cache should be enabled by default")
	}
	want := NewScratch().UpwardRank(inst)
	assertSameValues(t, "disabled#1", s.UpwardRank(inst), want)
	assertSameValues(t, "disabled#2", s.UpwardRank(inst), want)
	if c := s.EvalCache(); c.Hits != 0 || c.Misses != 2 {
		t.Fatalf("disabled cache recorded hits=%d misses=%d, want 0/2", c.Hits, c.Misses)
	}
	if prev := s.SetEvalCache(true); prev {
		t.Fatal("SetEvalCache(false) did not report disabled afterwards")
	}
	assertSameValues(t, "re-enabled miss", s.UpwardRank(inst), want)
	assertSameValues(t, "re-enabled hit", s.UpwardRank(inst), want)
	if c := s.EvalCache(); c.Hits != 1 {
		t.Fatalf("re-enabled cache never hit (hits=%d misses=%d)", c.Hits, c.Misses)
	}
}

// TestEvalCacheInstanceSwitch pins the key's instance half: alternating
// between two instances through one scratch always yields each
// instance's own ranks (the rebuild bumps the generation, so a stale
// cross-instance hit is impossible even though the pointer alternates).
func TestEvalCacheInstanceSwitch(t *testing.T) {
	r := rng.New(0x2ca)
	a, b := cacheTestInstance(r), cacheTestInstance(r)
	wantA, wantB := NewScratch().UpwardRank(a), NewScratch().UpwardRank(b)
	s := NewScratch()
	for i := 0; i < 4; i++ {
		assertSameValues(t, "instance A", s.UpwardRank(a), wantA)
		assertSameValues(t, "instance B", s.UpwardRank(b), wantB)
	}
	if c := s.EvalCache(); c.Hits != 0 {
		t.Fatalf("alternating instances produced %d stale-prone hits", c.Hits)
	}
}

func assertSameOrder(t *testing.T, name string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
}

// TestTopoOrderMemoHitsPerRankKind pins the priority-order memo: sorting
// by a scratch-owned rank vector is computed once per (instance,
// generation) per rank kind, each kind in its own buffer, and always
// equal to a fresh scratch's unmemoized order.
func TestTopoOrderMemoHitsPerRankKind(t *testing.T) {
	inst := cacheTestInstance(rng.New(0x70b0))
	s := NewScratch()

	up := s.UpwardRank(inst)
	wantUp := NewScratch().TopoOrderByPriority(inst.Graph, up)
	assertSameOrder(t, "topo(up, miss)", s.TopoOrderByPriority(inst.Graph, up), wantUp)
	c := s.EvalCache()
	h, m := c.Hits, c.Misses
	assertSameOrder(t, "topo(up, hit)", s.TopoOrderByPriority(inst.Graph, up), wantUp)
	if c.Hits != h+1 || c.Misses != m {
		t.Fatalf("repeat topo sort missed the memo (hits %d→%d, misses %d→%d)", h, c.Hits, m, c.Misses)
	}

	// A different rank kind gets its own slot; revisiting the first kind
	// afterwards still hits — the buffers are per kind, not shared.
	down := s.DownwardRank(inst)
	wantDown := NewScratch().TopoOrderByPriority(inst.Graph, down)
	assertSameOrder(t, "topo(down, miss)", s.TopoOrderByPriority(inst.Graph, down), wantDown)
	assertSameOrder(t, "topo(up, hit #2)", s.TopoOrderByPriority(inst.Graph, up), wantUp)

	// A caller-owned priority slice (CPoP's combined priority) is never
	// memoized: equal values, different buffer, so it recomputes into the
	// generic order buffer without touching the memos.
	foreign := append([]float64(nil), up...)
	assertSameOrder(t, "topo(foreign)", s.TopoOrderByPriority(inst.Graph, foreign), wantUp)
	assertSameOrder(t, "topo(up, hit #3)", s.TopoOrderByPriority(inst.Graph, up), wantUp)
}

// TestTopoOrderMemoStaleReadsImpossible mirrors the rank invalidation
// property test for the derived orders: every table patch must drop the
// memoized order along with the ranks.
func TestTopoOrderMemoStaleReadsImpossible(t *testing.T) {
	r := rng.New(0x70b1)
	inst := cacheTestInstance(r)
	s := NewScratch()
	tab := s.Tables(inst)
	for step := 0; step < 100; step++ {
		v := r.Intn(inst.Net.NumNodes())
		inst.Net.Speeds[v] = 0.2 + r.Float64()
		tab.UpdateNodeSpeed(v)
		up := s.UpwardRank(inst)
		want := NewScratch().TopoOrderByPriority(inst.Graph, up)
		assertSameOrder(t, "topo after patch", s.TopoOrderByPriority(inst.Graph, up), want)
		assertSameOrder(t, "topo after patch (hit)", s.TopoOrderByPriority(inst.Graph, up), want)
	}
}

// TestTopoOrderMemoDisabled: with the cache off, the derived orders
// recompute every time just like the ranks — the reference paths stay
// genuinely unmemoized.
func TestTopoOrderMemoDisabled(t *testing.T) {
	inst := cacheTestInstance(rng.New(0x70b2))
	s := NewScratch()
	s.SetEvalCache(false)
	up := s.UpwardRank(inst)
	want := NewScratch().TopoOrderByPriority(inst.Graph, up)
	assertSameOrder(t, "disabled#1", s.TopoOrderByPriority(inst.Graph, up), want)
	assertSameOrder(t, "disabled#2", s.TopoOrderByPriority(inst.Graph, up), want)
	if c := s.EvalCache(); c.Hits != 0 {
		t.Fatalf("disabled cache served %d hits", c.Hits)
	}
}

// TestEvalCacheZeroAllocSteadyState: memoization must not cost the
// zero-allocation property of the scheduling hot path — a warm hit is
// pointer comparisons and counter bumps only.
func TestEvalCacheZeroAllocSteadyState(t *testing.T) {
	inst := cacheTestInstance(rng.New(0xa110c))
	s := NewScratch()
	s.UpwardRank(inst)
	s.TopoOrderByPriority(inst.Graph, s.UpwardRank(inst))
	allocs := testing.AllocsPerRun(200, func() {
		s.TopoOrderByPriority(inst.Graph, s.UpwardRank(inst))
		s.DownwardRank(inst)
		s.StaticLevel(inst)
	})
	if allocs != 0 {
		t.Fatalf("warm memoized rank reads allocate %.2f/op; want 0", allocs)
	}
}
