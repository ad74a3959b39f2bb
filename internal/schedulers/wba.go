package schedulers

import (
	"fmt"
	"math"

	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

func init() {
	scheduler.Register("WBA", func() scheduler.Scheduler { return NewWBA(0x57BA, 10) })
}

// WBA is the Workflow-Based Application scheduler of Blythe et al.,
// developed for scientific-workflow management in grid/cloud
// environments and designed for the fully heterogeneous model. It is a
// stochastic greedy (GRASP-style) constructor: tasks are assigned one at
// a time, and for each ready task the candidate (task, node) options are
// scored by how much they would increase the current schedule makespan;
// an option is drawn uniformly from the restricted candidate list of
// options whose increase is within Alpha of the span between the best and
// worst option. The whole construction is repeated Rounds times and the
// best schedule kept. The paper bounds its scheduling complexity by
// O(|T| |D| |V|).
//
// WBA is randomized; the seed is fixed at construction so results are
// reproducible run-to-run (matching SAGA, which seeds Python's RNG).
//
// The rounds share one decision tree per call (wbaScratch): a round's
// state is a function of the picks it has made, so a state an earlier
// round reached is not scored again. A round also stops as soon as a
// lower bound on its makespan reaches the best earlier round's, since it
// could no longer be kept. Neither changes a kept round or a draw.
type WBA struct {
	Seed   uint64
	Rounds int
	// Alpha is the restricted-candidate-list width in [0, 1]: 0 accepts
	// only minimum-increase options (pure greedy), 1 accepts anything.
	Alpha float64
}

// NewWBA returns a WBA scheduler with the given seed and construction
// rounds and the conventional GRASP width of 0.5.
func NewWBA(seed uint64, rounds int) WBA {
	return WBA{Seed: seed, Rounds: rounds, Alpha: 0.5}
}

// Name implements scheduler.Scheduler.
func (WBA) Name() string { return "WBA" }

// wbaScratch is WBA's per-worker extension state: the root and per-round
// generators and the decision tree of the current call, reused across
// calls.
//
// The tree holds every state a round's pick path has reached: the
// placements made so far, which fix the ready set, every AppendRow row
// and so the candidate list. The root is the empty state, node 0. A node
// stores one pick until a round draws a second index there; it then
// stores its whole list, and every later arrival reads it. A round that
// leaves the stored path only reaches states no round has, so it scores
// at most one stored state: the tree holds at most rounds·|T| nodes and
// rounds−1 lists, each at most |ready|·|V| picks.
type wbaScratch struct {
	root, round rng.RNG
	nodes       []wbaNode
	picks       []wbaPick // the stored lists, each n picks long
}

// wbaNode is one state of the decision tree.
type wbaNode struct {
	n  int     // options within the cut
	lb float64 // no completion of the state has a smaller makespan
	// k is the index of the one stored pick, or -1 once the whole list
	// is stored at picks[list : list+n].
	k    int
	pick wbaPick
	list int
}

// wbaPick is one option of a node's candidate list and the state it
// leads to.
type wbaPick struct {
	t, v  int32
	start float64
	child int32 // -1 until a round takes the pick
}

// reset empties the tree for a call of rounds rounds over nt tasks,
// presizing the node arena to its bound.
func (ws *wbaScratch) reset(rounds, nt int) {
	if n := rounds * nt; cap(ws.nodes) < n {
		ws.nodes = make([]wbaNode, 0, n)
	}
	ws.nodes, ws.picks = ws.nodes[:0], ws.picks[:0]
}

// ScheduleScratch implements scheduler.Scheduler. Each construction round
// builds into the scratch builder; the best round is copied into out, so
// a warm call allocates nothing while drawing the exact random streams
// of the reference implementation. An Alpha that is NaN or outside
// [0, 1] is an error: in [0, 1] the cut is at least the minimum increase
// plus Eps, so the candidate list is never empty.
//
// Each round draws from its own stream, split from the root once per
// round, so a round that stops early (construct) leaves every other
// round's draws as they were. The tree is rebuilt on every call: PISA
// mutates an instance in place under the same pointer.
func (w WBA) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	if !(w.Alpha >= 0 && w.Alpha <= 1) {
		return fmt.Errorf("schedulers: WBA Alpha %v outside [0, 1]", w.Alpha)
	}
	rounds := w.Rounds
	if rounds <= 0 {
		rounds = 10
	}
	ws := scr.Ext("WBA", func() any { return &wbaScratch{} }).(*wbaScratch)
	ws.reset(rounds, inst.Graph.NumTasks())
	ws.root.Reseed(w.Seed)
	bestSet := false
	bestMakespan := 0.0
	for i := 0; i < rounds; i++ {
		ws.root.SplitInto(&ws.round)
		b, m := w.construct(inst, scr, ws, bestSet, bestMakespan)
		if !bestSet || m < bestMakespan {
			if err := b.ScheduleInto(out); err != nil {
				return err
			}
			bestSet, bestMakespan = true, m
		}
	}
	return nil
}

// construct runs one randomized construction round along the decision
// tree and returns the builder and its makespan. At every step the round
// draws k = r.Intn(n) over the state's n options within the cut and
// places the k-th. A state no round has reached is scored (score) and
// keeps the pick; a stored pick or list answers a later arrival without
// scoring. The current makespan is the running maximum of the picked
// finishes, each the picked start plus the task's Exec entry: the same
// sum Place computes for the assignment's end.
//
// When bounded, a state whose lower bound reaches best stops the round:
// no completion of it could beat best, and only a strictly better round
// is kept. The round's makespan is then +Inf.
func (w WBA) construct(inst *graph.Instance, scr *scheduler.Scratch, ws *wbaScratch, bounded bool, best float64) (*schedule.Builder, float64) {
	exec := scr.Tables(inst).Exec
	nv := inst.Net.NumNodes()
	r := &ws.round
	current := 0.0
	cur, root := int32(-1), int32(0)
	if len(ws.nodes) > 0 {
		cur = 0
	}
	link := &root // where a new state's index goes
	return placeReady(inst, scr, func(b *schedule.Builder, rows *scheduler.ReadyRows, ready []int) (int, int, float64) {
		var start, inc []float64
		var cut float64
		fresh := cur < 0
		if fresh {
			var n int
			var lb float64
			start, inc, cut, n, lb = w.score(b, rows, ready, current)
			cur = int32(len(ws.nodes))
			*link = cur
			ws.nodes = append(ws.nodes, wbaNode{n: n, lb: lb, pick: wbaPick{child: -1}})
		}
		nd := &ws.nodes[cur]
		if bounded && nd.lb >= best {
			// A node first reached here keeps no pick: every later
			// arrival stops here too, since best never grows.
			return -1, 0, 0
		}
		k := r.Intn(nd.n)
		switch {
		case fresh:
			nd.k, nd.pick = k, kthOption(ready, start, inc, cut, k)
		case nd.k >= 0 && k != nd.k:
			ws.storeList(w, nd, b, rows, ready, current)
		}
		p := &nd.pick
		if nd.k < 0 {
			p = &ws.picks[nd.list+k]
		}
		link, cur = &p.child, p.child
		t, v := int(p.t), int(p.v)
		if f := p.start + exec[t*nv+v]; f > current {
			current = f
		}
		return t, v, p.start
	})
}

// kthOption returns the k-th option within the cut, in ready × node
// order, of a scored state.
func kthOption(ready []int, start, inc []float64, cut float64, k int) wbaPick {
	nv := len(inc) / len(ready)
	for i, x := range inc {
		if x <= cut {
			if k == 0 {
				return wbaPick{t: int32(ready[i/nv]), v: int32(i % nv), start: start[i], child: -1}
			}
			k--
		}
	}
	panic("schedulers: WBA option index beyond the cut")
}

// storeList re-scores nd's state, which b holds, and stores its whole
// candidate list in ready × node order; the pick nd held keeps its child.
func (ws *wbaScratch) storeList(w WBA, nd *wbaNode, b *schedule.Builder, rows *scheduler.ReadyRows, ready []int, current float64) {
	start, inc, cut, _, _ := w.score(b, rows, ready, current)
	nv := len(start) / len(ready)
	list := len(ws.picks)
	for i, x := range inc {
		if x <= cut {
			ws.picks = append(ws.picks, wbaPick{t: int32(ready[i/nv]), v: int32(i % nv), start: start[i], child: -1})
		}
	}
	ws.picks[list+nd.k].child = nd.pick.child
	nd.k, nd.list = -1, list
}

// score scores every (ready task, node) option of the state b holds with
// one AppendRow call per ready task into a flat buffer, in ready order ×
// node order, then rewrites each finish in place as its increase over
// current. It returns the starts, the increases, the cut of the
// restricted candidate list (options within Alpha of the span between
// the best and worst increase), the number of options within it, and
// the state's lower bound: the larger of current and, over the ready
// tasks, each one's smallest finish. Every ready task is still to be
// placed, on a node whose available time only grows and from a ready row
// that is fixed, so with rounded addition monotone no completion of the
// state finishes any of them sooner.
func (w WBA) score(b *schedule.Builder, rows *scheduler.ReadyRows, ready []int, current float64) (start, inc []float64, cut float64, n int, lb float64) {
	start, inc = rows.Out(len(ready))
	nv := len(inc) / len(ready)
	minInc, maxInc := math.Inf(1), math.Inf(-1)
	lb = current
	for i, t := range ready {
		at, _ := rows.Row(b, t)
		row := inc[i*nv : (i+1)*nv]
		b.AppendRow(t, at, start[i*nv:(i+1)*nv], row)
		minFinish := math.Inf(1)
		for j, f := range row {
			if f < minFinish {
				minFinish = f
			}
			// max(f-current, 0) by comparison: f-current is never -0
			// (f is not -0), so this matches math.Max bit for bit.
			x := f - current
			if x < 0 {
				x = 0
			}
			row[j] = x
			if x < minInc {
				minInc = x
			}
			if x > maxInc {
				maxInc = x
			}
		}
		if minFinish > lb {
			lb = minFinish
		}
	}
	cut = minInc + w.Alpha*(maxInc-minInc) + graph.Eps
	for _, x := range inc {
		if x <= cut {
			n++
		}
	}
	return start, inc, cut, n, lb
}
