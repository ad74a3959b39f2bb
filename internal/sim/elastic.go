package sim

import (
	"container/heap"
	"fmt"
	"math"

	"saga/internal/graph"
	"saga/internal/schedule"
)

// ElasticOptions configures ExecuteElastic.
type ElasticOptions struct {
	// LinkContention serializes concurrent transfers on each directed
	// link (FIFO in request order). The paper's model — and every
	// scheduler here — assumes contention-free links; enabling this
	// shows how a schedule degrades on a platform with single-channel
	// links, a realism gap the robustness extension quantifies.
	LinkContention bool
}

// ExecuteElastic replays a schedule keeping only its decisions — node
// assignments and per-node execution order, by planned (start, end,
// topological position) — and recomputing all times operationally: a
// task starts as soon as its node reaches it in order and its inputs
// have arrived; a transfer starts when its producer finishes (and, under
// LinkContention, when the link frees). Unlike Execute it never fails on
// late inputs; lateness simply propagates.
// The returned Result's Events log includes the transfer arrivals.
func ExecuteElastic(inst *graph.Instance, s *schedule.Schedule, opts ElasticOptions) (*Result, error) {
	g, net := inst.Graph, inst.Net
	n := g.NumTasks()
	if len(s.ByTask) != n {
		return nil, fmt.Errorf("sim: schedule covers %d tasks, instance has %d", len(s.ByTask), n)
	}
	if s.NumNodes != net.NumNodes() {
		return nil, fmt.Errorf("sim: schedule targets %d nodes, network has %d", s.NumNodes, net.NumNodes())
	}

	// Per-node order from the planned start times.
	tasks, err := startOrder(g, s)
	if err != nil {
		return nil, err
	}
	order := make([][]int, net.NumNodes())
	for _, t := range tasks {
		v := s.ByTask[t].Node
		order[v] = append(order[v], t)
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

	delivered := make([]int, n)
	arrivedAt := make([]float64, n) // latest input arrival
	done := make([]bool, n)
	pos := make([]int, net.NumNodes()) // next index into order[v]
	nodeFree := make([]float64, net.NumNodes())
	linkFree := make([][]float64, net.NumNodes())
	for u := range linkFree {
		linkFree[u] = make([]float64, net.NumNodes())
	}

	var h eventHeap
	seq := 0
	push := func(e Event) {
		e.seq = seq
		seq++
		heap.Push(&h, e)
	}

	// tryStart fires the next task on node v if it is ready.
	tryStart := func(v int, now float64) {
		for pos[v] < len(order[v]) {
			t := order[v][pos[v]]
			if delivered[t] != len(g.Pred[t]) {
				return
			}
			start := math.Max(now, math.Max(nodeFree[v], arrivedAt[t]))
			exec := inst.ExecTime(t, v)
			pos[v]++
			nodeFree[v] = start + exec
			res.Start[t] = start
			res.NodeBusy[v] += exec
			push(Event{Time: start, Kind: EventTaskStart, Task: t, Src: -1, Node: v})
			push(Event{Time: start + exec, Kind: EventTaskFinish, Task: t, Src: -1, Node: v})
			now = nodeFree[v]
		}
	}

	for v := range order {
		tryStart(v, 0)
	}

	completed := 0
	for h.Len() > 0 {
		e := heap.Pop(&h).(Event)
		res.Events = append(res.Events, e)
		switch e.Kind {
		case EventTaskFinish:
			t := e.Task
			if done[t] {
				return nil, fmt.Errorf("sim: task %d finished twice", t)
			}
			done[t] = true
			res.Finish[t] = e.Time
			if e.Time > res.Makespan {
				res.Makespan = e.Time
			}
			completed++
			for _, d := range g.Succ[t] {
				dst := s.ByTask[d.To].Node
				delay := inst.CommTime(t, d.To, e.Node, dst)
				arrive := e.Time + delay
				if dst != e.Node && delay > 0 {
					if opts.LinkContention {
						begin := math.Max(e.Time, linkFree[e.Node][dst])
						arrive = begin + delay
						linkFree[e.Node][dst] = arrive
					}
					res.Messages++
					res.LinkBusy[e.Node][dst] += delay
				}
				push(Event{Time: arrive, Kind: EventMessageArrive, Task: d.To, Src: t, Node: dst})
			}
			tryStart(e.Node, e.Time)

		case EventMessageArrive:
			delivered[e.Task]++
			if e.Time > arrivedAt[e.Task] {
				arrivedAt[e.Task] = e.Time
			}
			tryStart(e.Node, e.Time)

		case EventTaskStart:
			// Informational: start decisions are made in tryStart.
		}
	}
	if completed != n {
		return nil, fmt.Errorf("sim: only %d of %d tasks completed (order/precedence deadlock)", completed, n)
	}
	return res, nil
}
