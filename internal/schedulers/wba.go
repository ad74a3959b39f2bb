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
// generators, reused across calls.
type wbaScratch struct {
	root, round rng.RNG
}

// ScheduleScratch implements scheduler.Scheduler. Each
// construction round builds into the scratch builder; the best round is
// copied into out, so a warm call allocates nothing while drawing the
// exact random streams of the reference implementation. An Alpha that is
// NaN or outside [0, 1] is an error: in [0, 1] the cut is at least the
// minimum increase plus Eps, so the candidate list is never empty.
func (w WBA) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	if !(w.Alpha >= 0 && w.Alpha <= 1) {
		return fmt.Errorf("schedulers: WBA Alpha %v outside [0, 1]", w.Alpha)
	}
	rounds := w.Rounds
	if rounds <= 0 {
		rounds = 10
	}
	ws := scr.Ext("WBA", func() any { return &wbaScratch{} }).(*wbaScratch)
	ws.root.Reseed(w.Seed)
	bestSet := false
	bestMakespan := 0.0
	for i := 0; i < rounds; i++ {
		ws.root.SplitInto(&ws.round)
		b, m := w.construct(inst, &ws.round, scr)
		if !bestSet || m < bestMakespan {
			if err := b.ScheduleInto(out); err != nil {
				return err
			}
			bestSet, bestMakespan = true, m
		}
	}
	return nil
}

// construct runs one randomized construction round and returns the
// builder and its makespan. Every step scores each (ready task, node)
// option with one AppendRow call per ready task into a flat buffer, in
// ready order × node order, then rewrites each finish in place as its
// increase over the current makespan. The pick is the k-th option within
// the cut in that order, k drawn by r.Intn over their count. The current
// makespan is the running maximum of the picked finishes, each the
// picked start plus the task's Exec entry: the same sum Place computes
// for the assignment's end, on the same tables the builder is bound to.
func (w WBA) construct(inst *graph.Instance, r *rng.RNG, scr *scheduler.Scratch) (*schedule.Builder, float64) {
	exec := scr.Tables(inst).Exec
	nv := inst.Net.NumNodes()
	current := 0.0
	return placeReady(inst, scr, func(b *schedule.Builder, rows *rowCache, ready []int) (int, int, float64) {
		start, inc := rows.out(len(ready))
		minInc, maxInc := math.Inf(1), math.Inf(-1)
		for i, t := range ready {
			at, _ := rows.row(b, t)
			row := inc[i*nv : (i+1)*nv]
			b.AppendRow(t, at, start[i*nv:(i+1)*nv], row)
			for j, f := range row {
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
		}
		// Restricted candidate list: options within Alpha of the span.
		cut := minInc + w.Alpha*(maxInc-minInc) + graph.Eps
		n := 0
		for _, x := range inc {
			if x <= cut {
				n++
			}
		}
		k := r.Intn(n)
		t, v, s := -1, -1, 0.0
	pick:
		for i, u := range ready {
			lo := i * nv
			for j, x := range inc[lo : lo+nv] {
				if x <= cut {
					if k == 0 {
						t, v, s = u, j, start[lo+j]
						break pick
					}
					k--
				}
			}
		}
		if f := s + exec[t*nv+v]; f > current {
			current = f
		}
		return t, v, s
	})
}
