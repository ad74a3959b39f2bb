package schedulers

import (
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// This file proves the zero-allocation hot path produces schedules
// BIT-IDENTICAL (==, not approximately equal) to the pre-optimization
// implementations. refBuilder and the ref* functions below are verbatim
// copies of the code the precomputed-table/scratch rewrite replaced:
// they recompute averages through Instance.AvgExecTime/AvgCommTime,
// rescan successor lists through Instance.CommTime, and allocate fresh
// state per call — exactly the arithmetic path the old schedulers took.

// refBuilder is the pre-optimization schedule.Builder: per-call
// allocation, Instance.CommTime (successor-list scan) for data-ready
// times, sort.Search for timeline insertion, head-to-tail insertion scan.
type refBuilder struct {
	inst      *graph.Instance
	byTask    []schedule.Assignment
	placed    []bool
	timelines [][]schedule.Assignment
}

func newRefBuilder(inst *graph.Instance) *refBuilder {
	return &refBuilder{
		inst:      inst,
		byTask:    make([]schedule.Assignment, inst.Graph.NumTasks()),
		placed:    make([]bool, inst.Graph.NumTasks()),
		timelines: make([][]schedule.Assignment, inst.Net.NumNodes()),
	}
}

func (b *refBuilder) nodeAvailable(v int) float64 {
	tl := b.timelines[v]
	if len(tl) == 0 {
		return 0
	}
	return tl[len(tl)-1].End
}

func (b *refBuilder) readyTime(t, v int) float64 {
	ready := 0.0
	for _, d := range b.inst.Graph.Pred[t] {
		u := d.To
		au := b.byTask[u]
		arrive := au.End + b.inst.CommTime(u, t, au.Node, v)
		if arrive > ready {
			ready = arrive
		}
	}
	return ready
}

func (b *refBuilder) earliestStart(v int, ready, duration float64, insertion bool) float64 {
	tl := b.timelines[v]
	if !insertion {
		return math.Max(ready, b.nodeAvailable(v))
	}
	start := ready
	for _, a := range tl {
		if start+duration <= a.Start {
			return start
		}
		if a.End > start {
			start = a.End
		}
	}
	return start
}

func (b *refBuilder) eft(t, v int, insertion bool) (start, finish float64) {
	ready := b.readyTime(t, v)
	dur := b.inst.ExecTime(t, v)
	start = b.earliestStart(v, ready, dur, insertion)
	return start, start + dur
}

func (b *refBuilder) place(t, v int, start float64) {
	a := schedule.Assignment{Task: t, Node: v, Start: start, End: start + b.inst.ExecTime(t, v)}
	b.byTask[t] = a
	b.placed[t] = true
	tl := b.timelines[v]
	// (Start, End) order, as schedule.Builder.Place keeps it: a block
	// goes after a zero-duration task at the same start.
	i := sort.Search(len(tl), func(i int) bool {
		return tl[i].Start > a.Start || (tl[i].Start == a.Start && tl[i].End >= a.End)
	})
	tl = append(tl, schedule.Assignment{})
	copy(tl[i+1:], tl[i:])
	tl[i] = a
	b.timelines[v] = tl
}

// enablingPredecessor is the pre-row schedule.Builder.EnablingPredecessor:
// the placed predecessor whose data arrives last at v, first on ties.
func (b *refBuilder) enablingPredecessor(t, v int) (pred int, arrive float64, ok bool) {
	pred = -1
	for _, d := range b.inst.Graph.Pred[t] {
		u := d.To
		au := b.byTask[u]
		at := au.End + b.inst.CommTime(u, t, au.Node, v)
		if at > arrive || pred == -1 {
			arrive, pred = at, u
		}
	}
	if pred == -1 {
		return -1, 0, false
	}
	return pred, arrive, true
}

func (b *refBuilder) makespan() float64 {
	m := 0.0
	for v := range b.timelines {
		if a := b.nodeAvailable(v); a > m {
			m = a
		}
	}
	return m
}

func (b *refBuilder) bestEFTNode(t int, insertion bool) (node int, start float64) {
	bestNode, bestStart, bestFinish := -1, 0.0, math.Inf(1)
	for v := 0; v < b.inst.Net.NumNodes(); v++ {
		s, f := b.eft(t, v, insertion)
		if f < bestFinish-graph.Eps {
			bestNode, bestStart, bestFinish = v, s, f
		}
	}
	return bestNode, bestStart
}

// refUpwardRank is the pre-optimization scheduler.UpwardRank.
func refUpwardRank(inst *graph.Instance) []float64 {
	g := inst.Graph
	rank := make([]float64, g.NumTasks())
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		best := 0.0
		for _, d := range g.Succ[t] {
			v := inst.AvgCommTime(t, d.To) + rank[d.To]
			if v > best {
				best = v
			}
		}
		rank[t] = inst.AvgExecTime(t) + best
	}
	return rank
}

// refDownwardRank is the pre-optimization scheduler.DownwardRank.
func refDownwardRank(inst *graph.Instance) []float64 {
	g := inst.Graph
	rank := make([]float64, g.NumTasks())
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	for _, t := range order {
		best := 0.0
		for _, d := range g.Pred[t] {
			u := d.To
			v := rank[u] + inst.AvgExecTime(u) + inst.AvgCommTime(u, t)
			if v > best {
				best = v
			}
		}
		rank[t] = best
	}
	return rank
}

// refTopoOrderByPriority is the pre-optimization
// scheduler.TopoOrderByPriority, with its own frontier bookkeeping.
func refTopoOrderByPriority(g *graph.TaskGraph, priority []float64) []int {
	pending := make([]int, g.NumTasks())
	var ready []int
	for t := 0; t < g.NumTasks(); t++ {
		pending[t] = len(g.Pred[t])
		if pending[t] == 0 {
			ready = append(ready, t)
		}
	}
	order := make([]int, 0, g.NumTasks())
	for len(ready) > 0 {
		best := ready[0]
		for _, t := range ready[1:] {
			if priority[t] > priority[best] {
				best = t
			}
		}
		order = append(order, best)
		for i, x := range ready {
			if x == best {
				ready = append(ready[:i], ready[i+1:]...)
				break
			}
		}
		for _, d := range g.Succ[best] {
			pending[d.To]--
			if pending[d.To] == 0 {
				i := sort.SearchInts(ready, d.To)
				ready = append(ready, 0)
				copy(ready[i+1:], ready[i:])
				ready[i] = d.To
			}
		}
	}
	return order
}

// refHEFT is the pre-optimization HEFT.Schedule.
func refHEFT(inst *graph.Instance) []schedule.Assignment {
	b := newRefBuilder(inst)
	rank := refUpwardRank(inst)
	for _, t := range refTopoOrderByPriority(inst.Graph, rank) {
		v, start := b.bestEFTNode(t, true)
		b.place(t, v, start)
	}
	return b.byTask
}

// refCPoP is the pre-optimization CPoP.Schedule.
func refCPoP(inst *graph.Instance) []schedule.Assignment {
	g := inst.Graph
	up := refUpwardRank(inst)
	down := refDownwardRank(inst)
	prio := make([]float64, g.NumTasks())
	cpLen := 0.0
	for t := range prio {
		prio[t] = up[t] + down[t]
		if prio[t] > cpLen {
			cpLen = prio[t]
		}
	}
	onCP := make([]bool, g.NumTasks())
	for t := range prio {
		onCP[t] = graph.ApproxEq(prio[t], cpLen)
	}
	cpNode, bestSum := 0, math.Inf(1)
	for v := 0; v < inst.Net.NumNodes(); v++ {
		sum := 0.0
		for t := range onCP {
			if onCP[t] {
				sum += inst.ExecTime(t, v)
			}
		}
		if sum < bestSum-graph.Eps {
			cpNode, bestSum = v, sum
		}
	}
	b := newRefBuilder(inst)
	for _, t := range refTopoOrderByPriority(g, prio) {
		if onCP[t] {
			s, _ := b.eft(t, cpNode, true)
			b.place(t, cpNode, s)
			continue
		}
		v, start := b.bestEFTNode(t, true)
		b.place(t, v, start)
	}
	return b.byTask
}

// refCandidateNodes is the pre-row candidateNodes of FCP/FLB: the
// earliest-idle node, rescanned per task, and the enabling processor
// from a per-node predecessor walk.
func refCandidateNodes(b *refBuilder, t int) (first, second int) {
	idle, idleAt := 0, math.Inf(1)
	for v := 0; v < b.inst.Net.NumNodes(); v++ {
		if a := b.nodeAvailable(v); a < idleAt-graph.Eps {
			idle, idleAt = v, a
		}
	}
	second = -1
	if pred, _, ok := b.enablingPredecessor(t, idle); ok {
		ep := b.byTask[pred].Node
		if ep != idle {
			second = ep
		}
	}
	return idle, second
}

// refBestCandidateEFT is the pre-row bestCandidateEFT: one per-node EFT
// per candidate.
func refBestCandidateEFT(b *refBuilder, t int) (node int, start, finish float64) {
	node, start, finish = -1, 0, math.Inf(1)
	c1, c2 := refCandidateNodes(b, t)
	for _, v := range [2]int{c1, c2} {
		if v < 0 {
			continue
		}
		s, f := b.eft(t, v, false)
		if f < finish-graph.Eps {
			node, start, finish = v, s, f
		}
	}
	return node, start, finish
}

// refFCP is the pre-row FCP.ScheduleScratch.
func refFCP(inst *graph.Instance) []schedule.Assignment {
	rank := refUpwardRank(inst)
	b := newRefBuilder(inst)
	rs := scheduler.NewReadySet(inst.Graph)
	for !rs.Empty() {
		ready := rs.Ready()
		t := ready[0]
		for _, x := range ready[1:] {
			if rank[x] > rank[t]+graph.Eps {
				t = x
			}
		}
		v, start, _ := refBestCandidateEFT(b, t)
		b.place(t, v, start)
		rs.Complete(t)
	}
	return b.byTask
}

// refFLB is the pre-row FLB.ScheduleScratch.
func refFLB(inst *graph.Instance) []schedule.Assignment {
	b := newRefBuilder(inst)
	rs := scheduler.NewReadySet(inst.Graph)
	for !rs.Empty() {
		bestTask, bestNode := -1, -1
		bestStart, bestFinish := 0.0, math.Inf(1)
		for _, t := range rs.Ready() {
			v, s, f := refBestCandidateEFT(b, t)
			if f < bestFinish-graph.Eps {
				bestTask, bestNode, bestStart, bestFinish = t, v, s, f
			}
		}
		b.place(bestTask, bestNode, bestStart)
		rs.Complete(bestTask)
	}
	return b.byTask
}

// refWBA is the pre-row WBA.ScheduleScratch: the same rounds and random
// streams, with a per-node EFT and math.Max for every option.
func refWBA(w WBA, inst *graph.Instance) []schedule.Assignment {
	rounds := w.Rounds
	if rounds <= 0 {
		rounds = 10
	}
	root := rng.New(w.Seed)
	var best []schedule.Assignment
	bestMakespan := 0.0
	for i := 0; i < rounds; i++ {
		r := root.Split()
		b := newRefBuilder(inst)
		rs := scheduler.NewReadySet(inst.Graph)
		var options []wbaOption
		for !rs.Empty() {
			options = options[:0]
			current := b.makespan()
			minInc, maxInc := math.Inf(1), math.Inf(-1)
			for _, t := range rs.Ready() {
				for v := 0; v < inst.Net.NumNodes(); v++ {
					s, f := b.eft(t, v, false)
					inc := math.Max(f-current, 0)
					options = append(options, wbaOption{task: t, node: v, start: s, increase: inc})
					if inc < minInc {
						minInc = inc
					}
					if inc > maxInc {
						maxInc = inc
					}
				}
			}
			cut := minInc + w.Alpha*(maxInc-minInc) + graph.Eps
			n := 0
			for _, o := range options {
				if o.increase <= cut {
					options[n] = o
					n++
				}
			}
			pick := options[r.Intn(n)]
			b.place(pick.task, pick.node, pick.start)
			rs.Complete(pick.task)
		}
		if m := b.makespan(); best == nil || m < bestMakespan {
			best, bestMakespan = b.byTask, m
		}
	}
	return best
}

// determinismCorpus builds a varied instance set: the paper's worked
// examples, random trees/chains over heterogeneous networks, and
// perturbation-style variants with zero-cost tasks and zero-size
// dependencies (the rank-tie cases PISA's weight moves create).
func determinismCorpus(t *testing.T) []*graph.Instance {
	t.Helper()
	insts := []*graph.Instance{
		datasets.Fig1Instance(),
		datasets.Fig3Instance(false),
		datasets.Fig3Instance(true),
		datasets.Fig5Instance(),
		datasets.Fig6Instance(),
	}
	for _, name := range []string{"chains", "in_trees", "out_trees"} {
		gen, err := datasets.New(name)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(0xD37)
		for i := 0; i < 8; i++ {
			insts = append(insts, gen.Generate(r.Split()))
		}
	}
	// Zero-weight variants: kill a task cost and an edge cost so rank
	// ties and free communications are exercised.
	r := rng.New(0xD38)
	for _, name := range []string{"chains", "in_trees"} {
		gen, err := datasets.New(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			inst := gen.Generate(r.Split())
			inst.Graph.Tasks[r.Intn(inst.Graph.NumTasks())].Cost = 0
			if deps := inst.Graph.Deps(); len(deps) > 0 {
				d := deps[r.Intn(len(deps))]
				inst.Graph.SetDepCost(d[0], d[1], 0)
			}
			insts = append(insts, inst)
		}
	}
	return insts
}

// assertSameAssignments requires exact (==) equality of every
// assignment's node, start and end.
func assertSameAssignments(t *testing.T, label string, i int, want []schedule.Assignment, got *schedule.Schedule) {
	t.Helper()
	if len(want) != len(got.ByTask) {
		t.Fatalf("%s inst %d: %d vs %d assignments", label, i, len(want), len(got.ByTask))
	}
	for tk := range want {
		w, g := want[tk], got.ByTask[tk]
		if w.Node != g.Node || w.Start != g.Start || w.End != g.End {
			t.Fatalf("%s inst %d task %d: reference (node %d, %v..%v) vs optimized (node %d, %v..%v)",
				label, i, tk, w.Node, w.Start, w.End, g.Node, g.Start, g.End)
		}
	}
}

// TestScratchBitIdenticalToReference proves the tentpole's contract: the
// table-driven, scratch-reusing HEFT and CPoP produce bit-identical
// schedules to the pre-optimization implementations over the corpus, on
// both the plain Schedule path and a shared warm scratch.
func TestScratchBitIdenticalToReference(t *testing.T) {
	scr := scheduler.NewScratch()
	var out schedule.Schedule
	for i, inst := range determinismCorpus(t) {
		wantHEFT := append([]schedule.Assignment(nil), refHEFT(inst)...)
		wantCPoP := append([]schedule.Assignment(nil), refCPoP(inst)...)

		sch, err := HEFT{}.Schedule(inst)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAssignments(t, "HEFT/plain", i, wantHEFT, sch)
		if err := (HEFT{}).ScheduleScratch(inst, scr, &out); err != nil {
			t.Fatal(err)
		}
		assertSameAssignments(t, "HEFT/scratch", i, wantHEFT, &out)

		sch, err = CPoP{}.Schedule(inst)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAssignments(t, "CPoP/plain", i, wantCPoP, sch)
		if err := (CPoP{}).ScheduleScratch(inst, scr, &out); err != nil {
			t.Fatal(err)
		}
		assertSameAssignments(t, "CPoP/scratch", i, wantCPoP, &out)
	}
}

// TestScratchMatchesPlainForAllSchedulers closes the loop for the rest
// of the roster: a warm shared scratch must reproduce the plain Schedule
// path bit-for-bit for every registered scratch-aware algorithm (the
// plain path itself is pinned by TestFig1FrozenMakespans and the
// reference comparison above).
func TestScratchMatchesPlainForAllSchedulers(t *testing.T) {
	names := append([]string{"Ensemble", "LMT", "ERT", "MH"}, ExperimentalNames...)
	corpus := determinismCorpus(t)
	for _, name := range names {
		s, err := scheduler.New(name)
		if err != nil {
			t.Fatal(err)
		}
		ss, ok := s.(scheduler.ScratchScheduler)
		if !ok {
			t.Fatalf("%s does not implement ScratchScheduler", name)
		}
		scr := scheduler.NewScratch()
		var out schedule.Schedule
		for i, inst := range corpus {
			want, err := s.Schedule(inst)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := ss.ScheduleScratch(inst, scr, &out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertSameAssignments(t, fmt.Sprintf("%s/scratch-vs-plain", name), i, want.ByTask, &out)
		}
	}
}

// zeroWeightInstance is the first 200 tasks of scale_layered_1k with
// every task cost zero and every dependency cost rounded to 0, 1 or 2, on
// an 8-node network of unit speeds and link strengths 1 or 2: every task
// finishes at its start, node-available times tie with ready times, and
// data from different predecessors often arrives at the same instant.
func zeroWeightInstance(t *testing.T) *graph.Instance {
	t.Helper()
	src := scaleTierInstance(t, "scale_layered_1k").Graph
	const n = 200
	g := graph.NewTaskGraph()
	for range src.Tasks[:n] {
		g.AddTask("z", 0)
	}
	for _, d := range src.Deps() {
		if d[1] < n {
			cost, _ := src.DepCost(d[0], d[1])
			g.MustAddDep(d[0], d[1], math.Round(cost))
		}
	}
	net := graph.NewNetwork(8)
	r := rng.New(0xD39)
	for v := 0; v < 8; v++ {
		for u := v + 1; u < 8; u++ {
			net.SetLink(v, u, float64(1+r.Intn(2)))
		}
	}
	return graph.NewInstance(g, net)
}

// enablingTieInstance is built so that FCP and FLB place the sink by
// the first-on-ties rule: the sources end on nodes 0 and 1 at 1 and 2,
// their data reaches the idle node 2 at the same instant 4, and the two
// candidate enabling nodes then finish the sink at different times.
func enablingTieInstance() *graph.Instance {
	g := graph.NewTaskGraph()
	u1 := g.AddTask("u1", 1)
	u2 := g.AddTask("u2", 2)
	sink := g.AddTask("sink", 1)
	g.MustAddDep(u1, sink, 3)
	g.MustAddDep(u2, sink, 2)
	net := graph.NewNetwork(3)
	net.SetLink(0, 1, 2)
	return graph.NewInstance(g, net)
}

// scaleTierInstance is the first instance of a scale-tier dataset at
// seed 1.
func scaleTierInstance(tb testing.TB, name string) *graph.Instance {
	tb.Helper()
	insts, err := datasets.Dataset(name, 1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return insts[0]
}

// TestRowSchedulersMatchPerNodeReference holds FCP, FLB and WBA — the
// schedulers that read ready rows and the hoisted earliest-idle node —
// bit for bit to their pre-row versions above, which walk a task's
// predecessors once per (task, node, step) and take math.Max. The corpus
// is determinismCorpus plus enablingTieInstance, the 1k scale tier, and a
// zero-weight instance; WBA runs two rounds on the last three. One
// scratch serves every call, so a row left over from a previous instance
// or round would show up here.
func TestRowSchedulersMatchPerNodeReference(t *testing.T) {
	scr := scheduler.NewScratch()
	var out schedule.Schedule
	check := func(label string, i int, s scheduler.ScratchScheduler, want []schedule.Assignment, inst *graph.Instance) {
		t.Helper()
		want = append([]schedule.Assignment(nil), want...)
		if err := s.ScheduleScratch(inst, scr, &out); err != nil {
			t.Fatal(err)
		}
		assertSameAssignments(t, label, i, want, &out)
	}
	corpus := determinismCorpus(t)
	corpus = append(corpus, enablingTieInstance())
	big := []*graph.Instance{scaleTierInstance(t, "scale_layered_1k"), scaleTierInstance(t, "scale_chains_1k"), zeroWeightInstance(t)}
	wba := NewWBA(0x57BA, 10)
	for i, inst := range append(corpus, big...) {
		check("FCP", i, FCP{}, refFCP(inst), inst)
		check("FLB", i, FLB{}, refFLB(inst), inst)
		if i >= len(corpus) {
			wba.Rounds = 2
		}
		check("WBA", i, wba, refWBA(wba, inst), inst)
	}
}

// TestFLBMatchesPerNodeReference10k is the FLB reference comparison at
// the 10k tier, where FLB's per-step candidate search used to dominate.
// Opt in via SCALE_BENCH_GATE=1 (`make bench-scale`).
func TestFLBMatchesPerNodeReference10k(t *testing.T) {
	if os.Getenv("SCALE_BENCH_GATE") == "" {
		t.Skip("10k reference run; run via `make bench-scale` (SCALE_BENCH_GATE=1)")
	}
	inst := scaleTierInstance(t, "scale_layered_10k")
	want := refFLB(inst)
	sch, err := FLB{}.Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssignments(t, "FLB/10k", 0, want, sch)
}
