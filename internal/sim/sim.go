// Package sim is a discrete-event executor for schedules: it replays a
// schedule on a simulated platform — compute nodes processing one task
// at a time, point-to-point links carrying task outputs — and reports
// when every task actually started and finished.
//
// The analytic model of package schedule computes the same quantities in
// closed form; this simulator derives them operationally from an event
// queue. Running both and comparing (see the differential tests in
// package schedulers and here) independently validates every scheduler:
// a schedule is executable exactly as written if and only if the
// simulation can fire every task at its scheduled start with all inputs
// already delivered and its node idle.
//
// The simulator follows the paper's platform assumptions: a node
// executes one task at a time at fixed speed; every ordered node pair
// has a dedicated link (no contention, unless Contended asks for it); a
// transfer of c(t, t') over link (v, v') takes c(t, t')/s(v, v'); local
// transfers are instantaneous.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"saga/internal/graph"
	"saga/internal/schedule"
)

// Mode selects how Execute times the schedule it replays. Every mode
// keeps the schedule's node assignments and per-node order.
type Mode int

const (
	// Strict starts every task at its planned time, and refuses the
	// schedule if an input arrives later or the node is still busy.
	Strict Mode = iota
	// Elastic recomputes all times operationally: a task starts as soon
	// as its node reaches it in order and its inputs have arrived, and a
	// transfer starts when its producer finishes. It never fails on late
	// inputs; lateness simply propagates.
	Elastic
	// Contended is Elastic with every directed link carrying one
	// transfer at a time, FIFO in request order. The paper's model — and
	// every scheduler here — assumes contention-free links; this shows
	// how a schedule degrades on a platform with single-channel links.
	Contended
)

// Result is the outcome of executing a schedule.
type Result struct {
	// Start and Finish are the simulated per-task times; in Strict mode
	// they equal the schedule's own Start/End fields.
	Start, Finish []float64
	// Makespan is the simulated completion time of the last task.
	Makespan float64
	// Messages counts remote transfers that take time: local deliveries,
	// zero-cost dependencies and infinitely strong links are excluded.
	Messages int
	// NodeBusy[v] is the total execution time on node v.
	NodeBusy []float64
}

// Utilization returns the fraction of node-time spent executing over the
// makespan (1 = perfectly packed). Zero-makespan schedules report 0.
func (r *Result) Utilization() float64 {
	if r.Makespan == 0 {
		return 0
	}
	busy := 0.0
	for _, b := range r.NodeBusy {
		busy += b
	}
	return busy / (r.Makespan * float64(len(r.NodeBusy)))
}

// startOrder returns s's tasks grouped by node, each node's ordered by
// (start, end, topological position): the order in which the node runs
// them. A zero-duration task that starts with a longer task on its node,
// or with its own successor, then starts, finishes and delivers its
// local outputs before the other one starts, as the schedule allows. It
// also checks every task's node.
func startOrder(g *graph.TaskGraph, s *schedule.Schedule) ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	pos := make([]int, len(order))
	for i, t := range order {
		pos[t] = i
		if v := s.ByTask[t].Node; v < 0 || v >= s.NumNodes {
			return nil, fmt.Errorf("sim: task %d assigned to invalid node %d", t, v)
		}
	}
	slices.SortFunc(order, func(x, y int) int {
		ax, ay := s.ByTask[x], s.ByTask[y]
		if ax.Node != ay.Node {
			return ax.Node - ay.Node
		}
		if c := cmp.Compare(ax.Start, ay.Start); c != 0 {
			return c
		}
		if c := cmp.Compare(ax.End, ay.End); c != 0 {
			return c
		}
		return pos[x] - pos[y]
	})
	return order, nil
}

// Event kinds. At equal times a delivery is processed before a
// completion; starts are not events but decided when a node is offered
// its next task.
const (
	arrive = iota // one input of task reaches its node
	finish        // task completes and emits its outputs
)

type event struct {
	time       float64
	kind, task int
	seq        int // push order, the final tie-break
}

// events is a binary min-heap keyed by (time, kind, seq).
type events []event

func (h events) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].seq < h[j].seq
}

func (h *events) push(e event) {
	q := append(*h, e)
	for i := len(q) - 1; i > 0 && q.less(i, (i-1)/2); i = (i - 1) / 2 {
		q[i], q[(i-1)/2] = q[(i-1)/2], q[i]
	}
	*h = q
}

func (h *events) pop() event {
	q := *h
	top, last := q[0], len(q)-1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < last && q.less(c+1, c) {
			c++
		}
		if c >= last || !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// Execute replays the schedule on the instance's platform in the given
// mode. Each node runs its tasks in startOrder; a task is offered to its
// node once the task before it there has started. It returns an error if
// the schedule is structurally inconsistent with the instance, if its
// per-node order deadlocks against precedence, or, in Strict mode, if a
// task's planned start comes before an input arrives or more than Eps
// before its node frees.
func Execute(inst *graph.Instance, s *schedule.Schedule, mode Mode) (*Result, error) {
	g, net := inst.Graph, inst.Net
	n, m := g.NumTasks(), net.NumNodes()
	if len(s.ByTask) != n {
		return nil, fmt.Errorf("sim: schedule covers %d tasks, instance has %d", len(s.ByTask), n)
	}
	if s.NumNodes != m {
		return nil, fmt.Errorf("sim: schedule targets %d nodes, network has %d", s.NumNodes, m)
	}
	tasks, err := startOrder(g, s)
	if err != nil {
		return nil, err
	}

	f := make([]float64, 3*n+2*m)
	res := &Result{Start: f[:n:n], Finish: f[n : 2*n : 2*n], NodeBusy: f[2*n : 2*n+m : 2*n+m]}
	arrivedAt, nodeFree := f[2*n+m:3*n+m], f[3*n+m:] // latest input; end of the node's last start
	for i := 2*n + m; i < len(f); i++ {
		f[i] = math.Inf(-1) // nothing has arrived or run, even before time 0
	}
	var linkFree []float64 // [u*m+v]: when link u→v finishes its queued transfers
	if mode == Contended {
		linkFree = make([]float64, m*m)
	}

	// tasks[next[v]:end[v]] is node v's tasks still to start.
	ints := make([]int, n+2*m)
	delivered, next, end := ints[:n], ints[n:n+m], ints[n+m:]
	for _, t := range tasks {
		end[s.ByTask[t].Node]++
	}
	for v, at := 0, 0; v < m; v++ {
		next[v], at = at, at+end[v]
		end[v] = at
	}

	h := make(events, 0, n+g.NumDeps())
	seq := 0
	push := func(time float64, kind, task int) {
		h.push(event{time: time, kind: kind, task: task, seq: seq})
		seq++
	}
	// tryStart starts node v's next tasks while their inputs are in.
	tryStart := func(v int, now float64) error {
		for ; next[v] < end[v]; next[v]++ {
			t := tasks[next[v]]
			if delivered[t] != len(g.Pred[t]) {
				return nil
			}
			start := s.ByTask[t].Start
			switch {
			case mode != Strict:
				start = math.Max(now, math.Max(nodeFree[v], arrivedAt[t]))
			case arrivedAt[t] > start:
				return fmt.Errorf("sim: task %d starts at %v, with its inputs delivered at %v", t, start, arrivedAt[t])
			case nodeFree[v] > start+graph.Eps:
				return fmt.Errorf("sim: task %d starts at %v on node %d, busy until %v", t, start, v, nodeFree[v])
			}
			exec := inst.ExecTime(t, v)
			nodeFree[v] = start + exec
			res.Start[t] = start
			res.NodeBusy[v] += exec
			push(start+exec, finish, t)
		}
		return nil
	}

	for v := range m {
		if err := tryStart(v, 0); err != nil {
			return nil, err
		}
	}
	completed := 0
	for len(h) > 0 {
		e := h.pop()
		t := e.task
		v := s.ByTask[t].Node
		if e.kind == arrive {
			delivered[t]++
			arrivedAt[t] = math.Max(arrivedAt[t], e.time)
		} else {
			res.Finish[t] = e.time
			res.Makespan = math.Max(res.Makespan, e.time)
			completed++
			for _, d := range g.Succ[t] {
				dst := s.ByTask[d.To].Node
				delay := inst.CommTime(t, d.To, v, dst)
				at := e.time + delay
				if dst != v && delay > 0 {
					if linkFree != nil {
						at = math.Max(e.time, linkFree[v*m+dst]) + delay
						linkFree[v*m+dst] = at
					}
					res.Messages++
				}
				push(at, arrive, d.To)
			}
		}
		if err := tryStart(v, e.time); err != nil {
			return nil, err
		}
	}
	if completed != n {
		return nil, fmt.Errorf("sim: only %d of %d tasks completed (order/precedence deadlock)", completed, n)
	}
	return res, nil
}
