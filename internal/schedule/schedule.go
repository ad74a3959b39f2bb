// Package schedule represents and validates task schedules (Section II of
// the PISA paper) and provides the shared machinery list schedulers use to
// place tasks: per-node timelines, data-ready times, and earliest-finish
// slot search with and without insertion.
//
// The key invariant is the Builder arena lifecycle: every slice a
// Builder owns survives Reset, so a warm builder schedules without heap
// allocation. Reset binds the builder to an instance and its
// graph.Tables, the one source of execution times. Nothing constructs
// builders — callers borrow the one owned by a scheduler.Scratch and
// finalize with ScheduleInto, which reuses the caller's Schedule (see
// EXPERIMENTS.md, "Hot-path memory discipline").
package schedule

import (
	"fmt"
	"math"
	"slices"

	"saga/internal/graph"
)

// Assignment records one scheduled task: the node it runs on and its
// start/end times. End - Start always equals c(t)/s(v).
type Assignment struct {
	Task  int
	Node  int
	Start float64
	End   float64
}

// Schedule is a complete mapping of tasks to (node, start) tuples.
// ByTask is indexed by task id. NumNodes records the size of the network
// the schedule targets so it can be validated and rendered standalone.
type Schedule struct {
	NumNodes int
	ByTask   []Assignment
}

// Makespan returns the time at which the last task finishes, or 0 for an
// empty schedule.
func (s *Schedule) Makespan() float64 {
	m := 0.0
	for _, a := range s.ByTask {
		if a.End > m {
			m = a.End
		}
	}
	return m
}

// CopyFrom makes s a deep copy of src, reusing s's assignment slice.
// Ensemble-style schedulers use it to keep a best-so-far schedule
// without per-candidate allocation.
func (s *Schedule) CopyFrom(src *Schedule) {
	s.NumNodes = src.NumNodes
	s.ByTask = append(s.ByTask[:0], src.ByTask...)
}

// cmpGantt orders assignments by (node, start, task) — the order a Gantt
// chart draws them in. It is a typed comparison so hot paths sorting
// with it stay closure- and reflection-free.
func cmpGantt(a, b Assignment) int {
	switch {
	case a.Node != b.Node:
		if a.Node < b.Node {
			return -1
		}
		return 1
	case a.Start != b.Start:
		if a.Start < b.Start {
			return -1
		}
		return 1
	case a.Task < b.Task:
		return -1
	case a.Task > b.Task:
		return 1
	}
	return 0
}

// Assignments returns all assignments sorted by (node, start) — the order
// a Gantt chart draws them in.
func (s *Schedule) Assignments() []Assignment {
	out := append([]Assignment(nil), s.ByTask...)
	slices.SortFunc(out, cmpGantt)
	return out
}

// Validate checks the Section II validity conditions of s against the
// instance it was produced for:
//
//  1. every task is scheduled exactly once;
//  2. each task's duration equals c(t)/s(v);
//  3. no two tasks overlap on a node;
//  4. a task starts only after every prerequisite has finished and its
//     output has arrived: r_u + c(u)/s(v_u) + c(u,t)/s(v_u,v_t) <= r_t.
func Validate(inst *graph.Instance, s *Schedule) error {
	g, net := inst.Graph, inst.Net
	if s == nil {
		return fmt.Errorf("schedule: nil schedule")
	}
	if len(s.ByTask) != g.NumTasks() {
		return fmt.Errorf("schedule: %d assignments for %d tasks", len(s.ByTask), g.NumTasks())
	}
	if s.NumNodes != net.NumNodes() {
		return fmt.Errorf("schedule: schedule targets %d nodes, network has %d", s.NumNodes, net.NumNodes())
	}
	perNode := make([][]Assignment, net.NumNodes())
	for t, a := range s.ByTask {
		if a.Task != t {
			return fmt.Errorf("schedule: assignment at index %d records task %d", t, a.Task)
		}
		if a.Node < 0 || a.Node >= net.NumNodes() {
			return fmt.Errorf("schedule: task %d assigned to invalid node %d", t, a.Node)
		}
		if a.Start < -graph.Eps || math.IsNaN(a.Start) || math.IsInf(a.Start, 0) {
			return fmt.Errorf("schedule: task %d has invalid start %v", t, a.Start)
		}
		want := inst.ExecTime(t, a.Node)
		if !graph.ApproxEq(a.End-a.Start, want) {
			return fmt.Errorf("schedule: task %d on node %d has duration %v, want %v",
				t, a.Node, a.End-a.Start, want)
		}
		perNode[a.Node] = append(perNode[a.Node], a)
	}
	for v, as := range perNode {
		// Full (start, end, task) order: deterministic under ties, and
		// zero-duration tasks sharing a start sort before the block that
		// occupies the instant, which is the permissive reading.
		slices.SortFunc(as, func(a, b Assignment) int {
			switch {
			case a.Start < b.Start:
				return -1
			case a.Start > b.Start:
				return 1
			case a.End < b.End:
				return -1
			case a.End > b.End:
				return 1
			}
			return a.Task - b.Task
		})
		for i := 1; i < len(as); i++ {
			if !graph.ApproxLE(as[i-1].End, as[i].Start) {
				return fmt.Errorf("schedule: tasks %d and %d overlap on node %d",
					as[i-1].Task, as[i].Task, v)
			}
		}
	}
	for u, succ := range g.Succ {
		au := s.ByTask[u]
		for _, d := range succ {
			at := s.ByTask[d.To]
			arrive := au.End + inst.CommTime(u, d.To, au.Node, at.Node)
			if !graph.ApproxLE(arrive, at.Start) {
				return fmt.Errorf("schedule: task %d starts at %v before input from %d arrives at %v",
					d.To, at.Start, u, arrive)
			}
		}
	}
	return nil
}
