package schedulers

import (
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
// generators and the candidate-option buffer, reused across calls.
type wbaScratch struct {
	root, round rng.RNG
	options     []wbaOption
}

// ScheduleScratch implements scheduler.Scheduler. Each
// construction round builds into the scratch builder; the best round is
// copied into out, so a warm call allocates nothing while drawing the
// exact random streams of the reference implementation.
func (w WBA) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
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
		b, err := w.construct(inst, &ws.round, scr, ws)
		if err != nil {
			return err
		}
		if m := b.Makespan(); !bestSet || m < bestMakespan {
			if err := b.ScheduleInto(out); err != nil {
				return err
			}
			bestSet, bestMakespan = true, m
		}
	}
	return nil
}

type wbaOption struct {
	task, node int
	start      float64
	increase   float64
}

func (w WBA) construct(inst *graph.Instance, r *rng.RNG, scr *scheduler.Scratch, ws *wbaScratch) (*schedule.Builder, error) {
	b := scr.Builder(inst)
	rs := scr.ReadySet(inst.Graph)
	rows := readyRows(scr, inst)
	options := ws.options[:0]
	for !rs.Empty() {
		options = options[:0]
		current := b.Makespan()
		minInc, maxInc := math.Inf(1), math.Inf(-1)
		for _, t := range rs.Ready() {
			ready, _ := rows.row(b, t)
			for v, at := range ready {
				s, f := b.EFTFrom(t, v, at, false)
				// max(f-current, 0) by comparison: f-current is never -0
				// (f is not -0), so this matches math.Max bit for bit.
				inc := f - current
				if inc < 0 {
					inc = 0
				}
				options = append(options, wbaOption{task: t, node: v, start: s, increase: inc})
				if inc < minInc {
					minInc = inc
				}
				if inc > maxInc {
					maxInc = inc
				}
			}
		}
		// Restricted candidate list: options within Alpha of the span.
		cut := minInc + w.Alpha*(maxInc-minInc) + graph.Eps
		n := 0
		for _, o := range options {
			if o.increase <= cut {
				options[n] = o
				n++
			}
		}
		pick := options[r.Intn(n)]
		b.Place(pick.task, pick.node, pick.start)
		rs.Complete(pick.task)
	}
	ws.options = options[:0]
	return b, nil
}
