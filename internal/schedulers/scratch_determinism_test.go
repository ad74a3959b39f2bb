package schedulers

import (
	"fmt"
	"math"
	"os"
	"slices"
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

// wbaOption is one (task, node) candidate of refWBA's restricted
// candidate list.
type wbaOption struct {
	task, node int
	start      float64
	increase   float64
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

// refMinCompletion is the per-node minCompletion MinMin, MaxMin and
// Duplex used before AppendRow: one EFT, and so one predecessor walk, per
// node.
func refMinCompletion(b *schedule.Builder, t int) (node int, start, finish float64) {
	node, start, finish = -1, 0, math.Inf(1)
	for v := 0; v < b.Instance().Net.NumNodes(); v++ {
		s, f, ok := b.EFT(t, v, false)
		if !ok {
			panic("schedulers: minCompletion on non-ready task")
		}
		if f < finish-graph.Eps {
			node, start, finish = v, s, f
		}
	}
	return node, start, finish
}

// refMinMinSchedule is the per-node minMinSchedule.
func refMinMinSchedule(inst *graph.Instance, scr *scheduler.Scratch, pickMax bool, out *schedule.Schedule) error {
	b := scr.Builder(inst)
	rs := scr.ReadySet(inst.Graph)
	for !rs.Empty() {
		bestTask, bestNode := -1, -1
		bestStart, bestMCT := 0.0, 0.0
		for _, t := range rs.Ready() {
			v, s, f := refMinCompletion(b, t)
			better := bestTask == -1
			if !better {
				if pickMax {
					better = f > bestMCT+graph.Eps
				} else {
					better = f < bestMCT-graph.Eps
				}
			}
			if better {
				bestTask, bestNode, bestStart, bestMCT = t, v, s, f
			}
		}
		b.Place(bestTask, bestNode, bestStart)
		rs.Complete(bestTask)
	}
	return b.ScheduleInto(out)
}

// refDuplex is the per-node Duplex.ScheduleScratch.
func refDuplex(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	if err := refMinMinSchedule(inst, scr, false, out); err != nil {
		return err
	}
	tmp := scr.AcquireSchedule()
	defer scr.ReleaseSchedule(tmp)
	if err := refMinMinSchedule(inst, scr, true, tmp); err != nil {
		return err
	}
	if tmp.Makespan() < out.Makespan() {
		out.CopyFrom(tmp)
	}
	return nil
}

// refETF is the per-node ETF.ScheduleScratch.
func refETF(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	rank := scr.UpwardRank(inst)
	b := scr.Builder(inst)
	rs := scr.ReadySet(inst.Graph)
	for !rs.Empty() {
		bestTask, bestNode := -1, -1
		bestStart := 0.0
		for _, t := range rs.Ready() {
			for v := 0; v < inst.Net.NumNodes(); v++ {
				s, _, ok := b.EFT(t, v, false)
				if !ok {
					panic("schedulers: ETF ready task with unplaced predecessor")
				}
				better := bestTask == -1 || s < bestStart-graph.Eps
				if !better && graph.ApproxEq(s, bestStart) {
					// Tie-break: prefer the more critical task.
					better = rank[t] > rank[bestTask]+graph.Eps
				}
				if better {
					bestTask, bestNode, bestStart = t, v, s
				}
			}
		}
		b.Place(bestTask, bestNode, bestStart)
		rs.Complete(bestTask)
	}
	return b.ScheduleInto(out)
}

// refGDL is the per-node GDL.ScheduleScratch.
func refGDL(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	tab := scr.Tables(inst)
	sl := scr.StaticLevel(inst)
	b := scr.Builder(inst)
	rs := scr.ReadySet(inst.Graph)
	for !rs.Empty() {
		bestTask, bestNode := -1, -1
		bestStart, bestDL := 0.0, 0.0
		for _, t := range rs.Ready() {
			avg := tab.AvgExec[t]
			for v := 0; v < inst.Net.NumNodes(); v++ {
				s, _, ok := b.EFT(t, v, false)
				if !ok {
					panic("schedulers: GDL ready task with unplaced predecessor")
				}
				dl := sl[t] - s + (avg - inst.ExecTime(t, v))
				if bestTask == -1 || dl > bestDL+graph.Eps {
					bestTask, bestNode, bestStart, bestDL = t, v, s, dl
				}
			}
		}
		b.Place(bestTask, bestNode, bestStart)
		rs.Complete(bestTask)
	}
	return b.ScheduleInto(out)
}

// refBIL is the per-node BIL.ScheduleScratch.
func refBIL(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	nNodes := inst.Net.NumNodes()
	tab := scr.Tables(inst)
	bil := bilLevels(inst, tab, scr.Floats(inst.Graph.NumTasks()*nNodes))
	b := scr.Builder(inst)
	rs := scr.ReadySet(inst.Graph)
	for !rs.Empty() {
		ready := rs.Ready()
		k := float64(len(ready))
		bestTask, bestCrit := -1, math.Inf(-1)
		for _, t := range ready {
			crit := math.Inf(-1)
			for v := 0; v < nNodes; v++ {
				s, _, ok := b.EFT(t, v, false)
				if !ok {
					panic("schedulers: BIL ready task with unplaced predecessor")
				}
				if bim := s + bil[t*nNodes+v]; bim > crit {
					crit = bim
				}
			}
			if crit > bestCrit+graph.Eps {
				bestTask, bestCrit = t, crit
			}
		}
		adjust := math.Max(k/float64(nNodes)-1, 0)
		bestNode, bestStart, bestBIM := -1, 0.0, math.Inf(1)
		for v := 0; v < nNodes; v++ {
			s, _, _ := b.EFT(bestTask, v, false)
			bim := s + bil[bestTask*nNodes+v] + inst.ExecTime(bestTask, v)*adjust
			if bim < bestBIM-graph.Eps {
				bestNode, bestStart, bestBIM = v, s, bim
			}
		}
		b.Place(bestTask, bestNode, bestStart)
		rs.Complete(bestTask)
	}
	return b.ScheduleInto(out)
}

// refERT is the per-node ERT.ScheduleScratch: ReadyTime and
// EarliestStart once per (ready task, node, step).
func refERT(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	b := scr.Builder(inst)
	rs := scr.ReadySet(inst.Graph)
	for !rs.Empty() {
		bestTask, bestNode := -1, -1
		bestReady, bestStart := math.Inf(1), math.Inf(1)
		for _, t := range rs.Ready() {
			for v := 0; v < inst.Net.NumNodes(); v++ {
				ready, ok := b.ReadyTime(t, v)
				if !ok {
					panic("schedulers: ERT ready task with unplaced predecessor")
				}
				start := b.EarliestStart(v, ready, inst.ExecTime(t, v), false)
				better := bestTask == -1 || ready < bestReady-graph.Eps
				if !better && graph.ApproxEq(ready, bestReady) {
					better = start < bestStart-graph.Eps
				}
				if better {
					bestTask, bestNode, bestReady, bestStart = t, v, ready, start
				}
			}
		}
		b.Place(bestTask, bestNode, bestStart)
		rs.Complete(bestTask)
	}
	return b.ScheduleInto(out)
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
			insts = append(insts, gen(r.Split()))
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
			inst := gen(r.Split())
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

// nearTieDAG is a random 40-task DAG on a homogeneous four-node
// network whose task and dependency costs are 0, 1 or 2 plus a multiple
// of Eps/3: many restricted finishes lie within Eps of each other, where
// FLB's pick rests on its first-within-Eps scan order.
func nearTieDAG(r *rng.RNG) *graph.Instance {
	const n = 40
	jitter := func() float64 { return float64(r.Intn(3)) + float64(r.Intn(4))*graph.Eps/3 }
	g := graph.NewTaskGraph()
	for i := 0; i < n; i++ {
		g.AddTask(fmt.Sprintf("t%d", i), jitter())
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n && j < i+8; j++ {
			if r.Intn(4) == 0 {
				g.MustAddDep(i, j, jitter())
			}
		}
	}
	return graph.NewInstance(g, graph.NewNetwork(4))
}

// differentialCorpus is the one corpus every oracle row runs over, 109
// instances: determinismCorpus, zeroCostCorpus, 20 Fig 4-style DAGs,
// enablingTieInstance, nearTieInstance, twelve near-tie DAGs,
// zeroWeightInstance, and last the two 1k scale datasets (the two
// have the same task count, so a memo or row left over from the
// previous construction would be read as current). nearTie is
// nearTieInstance's index.
func differentialCorpus(t *testing.T) (corpus []*graph.Instance, nearTie int) {
	t.Helper()
	corpus = append(determinismCorpus(t), zeroCostCorpus(t)...)
	corpus = append(corpus, fig4StyleInstances(20, 0x2E81)...)
	corpus = append(corpus, enablingTieInstance(), nearTieInstance())
	nearTie = len(corpus) - 1
	r := rng.New(0xF1B)
	for i := 0; i < 12; i++ {
		corpus = append(corpus, nearTieDAG(r.Split()))
	}
	return append(corpus, zeroWeightInstance(t), scaleTierInstance(t, "scale_layered_1k"), scaleTierInstance(t, "scale_chains_1k")), nearTie
}

// span is the part of differentialCorpus a row runs over.
type span int

const (
	wholeCorpus span = iota
	below1k          // every instance but the two 1k ones
	only1k
	onlyNearTie
)

// differentialRow pairs a scheduler value with the oracle its schedules
// must equal bit for bit, under the test named test. A nil ref is the
// one-shot scheduler.Schedule, a fresh scratch per call.
type differentialRow struct {
	test string
	s    scheduler.Scheduler
	ref  func(*graph.Instance, *scheduler.Scratch) []schedule.Assignment
	span span
}

func (r differentialRow) name() string {
	if w, ok := r.s.(WBA); ok {
		return fmt.Sprintf("WBA rounds=%d alpha=%v seed=%#x", w.Rounds, w.Alpha, w.Seed)
	}
	return r.s.Name()
}

// differentialTable is every gated scheduler's rows. WBA runs Rounds ∈
// {1, 2, 10, 25} × Alpha ∈ {0, 0.5, 1} below 1k, each also under eight
// seeds on nearTieInstance (rounds whose makespans differ by less than
// Eps), and two and three rounds on the 1k instances.
func differentialTable(t *testing.T) []differentialRow {
	const rowTest, wbaTest = "TestRowSchedulersMatchPerNodeReference", "TestWBAMatchesReference"
	builder := func(test string, s scheduler.Scheduler, ref func(*graph.Instance) []schedule.Assignment) differentialRow {
		return differentialRow{test: test, s: s,
			ref: func(inst *graph.Instance, _ *scheduler.Scratch) []schedule.Assignment { return ref(inst) }}
	}
	perNode := func(s scheduler.Scheduler, ref func(*graph.Instance, *scheduler.Scratch, *schedule.Schedule) error) differentialRow {
		return differentialRow{test: rowTest, s: s,
			ref: func(inst *graph.Instance, scr *scheduler.Scratch) []schedule.Assignment {
				var out schedule.Schedule
				if err := ref(inst, scr, &out); err != nil {
					t.Fatalf("%s reference: %v", s.Name(), err)
				}
				return out.ByTask
			}}
	}
	wba := func(test string, w WBA, sp span) differentialRow {
		return differentialRow{test: test, s: w, span: sp,
			ref: func(inst *graph.Instance, _ *scheduler.Scratch) []schedule.Assignment { return refWBA(w, inst) }}
	}
	rows := []differentialRow{
		builder("TestScratchBitIdenticalToReference", HEFT{}, refHEFT),
		builder("TestScratchBitIdenticalToReference", CPoP{}, refCPoP),
		builder(rowTest, FCP{}, refFCP), builder(rowTest, FLB{}, refFLB),
		perNode(MinMin{}, func(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
			return refMinMinSchedule(inst, scr, false, out)
		}),
		perNode(MaxMin{}, func(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
			return refMinMinSchedule(inst, scr, true, out)
		}),
		perNode(Duplex{}, refDuplex), perNode(ETF{}, refETF), perNode(GDL{}, refGDL), perNode(BIL{}, refBIL), perNode(ERT{}, refERT),
		wba(rowTest, NewWBA(0x57BA, 10), below1k), wba(rowTest, NewWBA(0x57BA, 2), only1k),
		wba(wbaTest, NewWBA(0x57BA, 3), only1k),
	}
	for _, rounds := range []int{1, 2, 10, 25} {
		for _, alpha := range []float64{0, 0.5, 1} {
			rows = append(rows, wba(wbaTest, WBA{Seed: 0x57BA, Rounds: rounds, Alpha: alpha}, below1k))
			for seed := uint64(1); seed <= 8; seed++ {
				rows = append(rows, wba(wbaTest, WBA{Seed: seed, Rounds: rounds, Alpha: alpha}, onlyNearTie))
			}
		}
	}
	for _, name := range gatedNames() {
		if !slices.ContainsFunc(rows, func(r differentialRow) bool { return r.s.Name() == name }) {
			s, err := scheduler.New(name)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, differentialRow{test: "TestScratchMatchesPlainForAllSchedulers", s: s})
		}
	}
	return rows
}

// runDifferential holds each row of the calling test to its oracle over
// differentialCorpus: once one-shot (scheduler.Schedule), once on a
// scratch of the row's own, then twice in turn on one scratch that every
// row of the test shares, so state a call leaves behind — a memo, a
// ready row, a decision tree, another scheduler's buffers — would show
// up in the next. The oracles run on a scratch of their own. The tests
// below split the table. HEFT and CPoP, and FCP and FLB among the ready
// row schedulers, have refBuilder copies, which recompute averages
// through the Instance, rescan successor lists and walk every node per
// task (FLB's re-scores every ready task at every step where FLB keeps a
// candidate memo). MinMin, MaxMin, Duplex, ETF, GDL, BIL and ERT score a
// ready task with one AppendRow call; their copies walk a task's
// predecessors once per (task, node, step). refWBA runs every round to
// completion and scores every step where WBA shares one decision tree
// and stops early. Every other gated scheduler (gatedNames: the registry
// minus the two exact schedulers) is held to the one-shot path that
// TestFig1FrozenMakespans and the digest goldens pin.
func runDifferential(t *testing.T) {
	corpus, nearTie := differentialCorpus(t)
	covers := map[span]func(i int) bool{
		wholeCorpus: func(int) bool { return true },
		below1k:     func(i int) bool { return i < len(corpus)-2 },
		only1k:      func(i int) bool { return i >= len(corpus)-2 },
		onlyNearTie: func(i int) bool { return i == nearTie },
	}
	var rows []differentialRow
	var want [][][]schedule.Assignment // by row, then instance; nil where the row does not run
	var own []*scheduler.Scratch       // by row
	refScr, shared := scheduler.NewScratch(), scheduler.NewScratch()
	for _, row := range differentialTable(t) {
		if row.test != t.Name() {
			continue
		}
		w := make([][]schedule.Assignment, len(corpus))
		for i, inst := range corpus {
			if !covers[row.span](i) {
				continue
			}
			plain, err := scheduler.Schedule(row.s, inst)
			if err != nil {
				t.Fatalf("%s: %v", row.name(), err)
			}
			if w[i] = plain.ByTask; row.ref != nil {
				w[i] = row.ref(inst, refScr)
				assertSameAssignments(t, row.name()+"/one-shot", i, w[i], plain)
			}
		}
		rows, want, own = append(rows, row), append(want, w), append(own, scheduler.NewScratch())
	}
	if len(rows) == 0 {
		t.Fatalf("no rows for %s", t.Name())
	}
	var out schedule.Schedule
	for pass := 0; pass < 3; pass++ {
		for i, inst := range corpus {
			for r, row := range rows {
				if want[r][i] == nil {
					continue
				}
				scr := shared
				if pass == 0 {
					scr = own[r]
				}
				if err := row.s.ScheduleScratch(inst, scr, &out); err != nil {
					t.Fatalf("%s: %v", row.name(), err)
				}
				assertSameAssignments(t, fmt.Sprintf("%s/pass %d", row.name(), pass), i, want[r][i], &out)
			}
		}
	}
}

func TestScratchBitIdenticalToReference(t *testing.T)      { runDifferential(t) }
func TestRowSchedulersMatchPerNodeReference(t *testing.T)  { runDifferential(t) }
func TestWBAMatchesReference(t *testing.T)                 { runDifferential(t) }
func TestScratchMatchesPlainForAllSchedulers(t *testing.T) { runDifferential(t) }

// TestFLBMatchesPerNodeReference10k is the FLB reference comparison at
// the 10k tier, where FLB's per-step candidate search used to dominate.
// Opt in via SCALE_BENCH_GATE=1 (`make bench-scale`).
func TestFLBMatchesPerNodeReference10k(t *testing.T) {
	if os.Getenv("SCALE_BENCH_GATE") == "" {
		t.Skip("10k reference run; run via `make bench-scale` (SCALE_BENCH_GATE=1)")
	}
	inst := scaleTierInstance(t, "scale_layered_10k")
	want := refFLB(inst)
	sch, err := scheduler.Schedule(FLB{}, inst)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssignments(t, "FLB/10k", 0, want, sch)
}
