// Package sim is a discrete-event executor for schedules: it replays a
// schedule on a simulated platform — compute nodes processing one task
// at a time, point-to-point links carrying task outputs — and reports
// when every task and message actually started and finished.
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
// has a dedicated link (no contention); a transfer of c(t, t') over link
// (v, v') takes c(t, t')/s(v, v'); local transfers are instantaneous.
package sim

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"

	"saga/internal/graph"
	"saga/internal/schedule"
)

// EventKind enumerates simulation events.
type EventKind int

// Event kinds. The numeric order is the tie-break order at equal
// timestamps: deliveries and completions release resources before new
// work begins.
const (
	// EventMessageArrive delivers one task output to one node.
	EventMessageArrive EventKind = iota
	// EventTaskFinish completes a task and emits its output messages.
	EventTaskFinish
	// EventTaskStart begins a task's execution on its node.
	EventTaskStart
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventMessageArrive:
		return "message-arrive"
	case EventTaskFinish:
		return "task-finish"
	case EventTaskStart:
		return "task-start"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one timestamped simulation event. For message events, Src is
// the producing task and Task the consuming one; otherwise Src is -1.
// Node is where the event takes place (the destination node for
// messages).
type Event struct {
	Time float64
	Kind EventKind
	Task int
	Src  int
	Node int
	seq  int // insertion order, the final tie-break
}

type eventHeap []Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	if h[i].Kind != h[j].Kind {
		return h[i].Kind < h[j].Kind
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(Event)) }
func (h *eventHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// Result is the outcome of executing a schedule.
type Result struct {
	// Start and Finish are the simulated per-task times; for a feasible
	// schedule they equal the schedule's own Start/End fields.
	Start, Finish []float64
	// Makespan is the simulated completion time of the last task.
	Makespan float64
	// Events is the full event log in processing order.
	Events []Event
	// Messages counts remote transfers that take time: local deliveries,
	// zero-cost dependencies and infinitely strong links are excluded,
	// as in ExecuteElastic.
	Messages int
	// NodeBusy[v] is the total execution time on node v; LinkBusy[u][v]
	// the total transfer time on the directed link u→v. Together they
	// give platform utilization.
	NodeBusy []float64
	LinkBusy [][]float64
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

// startOrder returns s's tasks ordered by (start, end, topological
// position): the order in which both simulators fire starts that fall
// at the same instant. A zero-duration task that starts with a longer
// task on its node, or with its own successor, then starts, finishes and
// delivers its local outputs before the other one starts, as the
// schedule allows. It also checks every task's node.
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

// Execute replays the schedule on the instance's platform. It returns an
// error if the schedule is not operationally executable: a task's start
// event fires while an input is undelivered or its node is still busy,
// or the schedule is structurally inconsistent with the instance.
// Same-time starts fire in startOrder.
func Execute(inst *graph.Instance, s *schedule.Schedule) (*Result, error) {
	g, net := inst.Graph, inst.Net
	n := g.NumTasks()
	if len(s.ByTask) != n {
		return nil, fmt.Errorf("sim: schedule covers %d tasks, instance has %d", len(s.ByTask), n)
	}
	if s.NumNodes != net.NumNodes() {
		return nil, fmt.Errorf("sim: schedule targets %d nodes, network has %d", s.NumNodes, net.NumNodes())
	}

	res := &Result{
		Start:    make([]float64, n),
		Finish:   make([]float64, n),
		NodeBusy: make([]float64, net.NumNodes()),
		LinkBusy: make([][]float64, net.NumNodes()),
	}
	for v := range res.LinkBusy {
		res.LinkBusy[v] = make([]float64, net.NumNodes())
	}

	delivered := make([]int, n) // inputs available at the task's node
	running := make([]bool, n)  // task currently executing
	nodeFree := make([]float64, net.NumNodes())
	nodeIdle := make([]bool, net.NumNodes())
	for v := range nodeIdle {
		nodeIdle[v] = true
	}

	order, err := startOrder(g, s)
	if err != nil {
		return nil, err
	}
	var h eventHeap
	seq := 0
	push := func(e Event) {
		e.seq = seq
		seq++
		heap.Push(&h, e)
	}
	for _, t := range order {
		a := s.ByTask[t]
		push(Event{Time: a.Start, Kind: EventTaskStart, Task: t, Src: -1, Node: a.Node})
	}

	completed := 0
	for h.Len() > 0 {
		e := heap.Pop(&h).(Event)
		res.Events = append(res.Events, e)
		switch e.Kind {
		case EventTaskStart:
			t := e.Task
			if delivered[t] != len(g.Pred[t]) {
				return nil, fmt.Errorf("sim: task %d starts at %v with %d of %d inputs delivered",
					t, e.Time, delivered[t], len(g.Pred[t]))
			}
			if !nodeIdle[e.Node] && nodeFree[e.Node] > e.Time+graph.Eps {
				return nil, fmt.Errorf("sim: task %d starts at %v on node %d, busy until %v",
					t, e.Time, e.Node, nodeFree[e.Node])
			}
			exec := inst.ExecTime(t, e.Node)
			running[t] = true
			nodeIdle[e.Node] = false
			nodeFree[e.Node] = e.Time + exec
			res.Start[t] = e.Time
			res.NodeBusy[e.Node] += exec
			push(Event{Time: e.Time + exec, Kind: EventTaskFinish, Task: t, Src: -1, Node: e.Node})

		case EventTaskFinish:
			t := e.Task
			if !running[t] {
				return nil, fmt.Errorf("sim: finish event for non-running task %d", t)
			}
			running[t] = false
			nodeIdle[e.Node] = true
			res.Finish[t] = e.Time
			if e.Time > res.Makespan {
				res.Makespan = e.Time
			}
			completed++
			// Emit output messages toward every successor's node.
			for _, d := range g.Succ[t] {
				dst := s.ByTask[d.To].Node
				delay := inst.CommTime(t, d.To, e.Node, dst)
				if dst != e.Node && delay > 0 {
					res.Messages++
					res.LinkBusy[e.Node][dst] += delay
				}
				push(Event{Time: e.Time + delay, Kind: EventMessageArrive, Task: d.To, Src: t, Node: dst})
			}

		case EventMessageArrive:
			delivered[e.Task]++
		}
	}
	if completed != n {
		return nil, fmt.Errorf("sim: only %d of %d tasks completed", completed, n)
	}
	return res, nil
}
