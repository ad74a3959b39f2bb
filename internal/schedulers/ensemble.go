package schedulers

import (
	"fmt"

	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

func init() {
	// The default ensemble bundles the strongest general-purpose
	// heuristics; Duplex is the degenerate two-member special case
	// already in Table I.
	scheduler.Register("Ensemble", func() scheduler.Scheduler {
		return NewEnsemble("Ensemble", "HEFT", "CPoP", "MinMin", "MaxMin", "FastestNode")
	})
}

// Ensemble runs several member algorithms on the instance and returns the
// schedule with the smallest makespan. The paper's conclusion proposes
// exactly this ("running multiple algorithms and choosing the best
// schedule") as a direction for future work, and its Duplex entry is the
// two-member special case. An ensemble's makespan ratio against any of
// its members is at most 1 on every instance, which makes it a useful
// upper-bound baseline in PISA grids.
type Ensemble struct {
	name    string
	members []scheduler.Scheduler
}

// NewEnsemble builds an ensemble over the named registered schedulers.
// It panics on unknown names (registration-time programming error).
func NewEnsemble(name string, members ...string) *Ensemble {
	if len(members) == 0 {
		panic("schedulers: ensemble needs at least one member")
	}
	e := &Ensemble{name: name}
	for _, m := range members {
		s, err := scheduler.New(m)
		if err != nil {
			panic(fmt.Sprintf("schedulers: ensemble member %q: %v", m, err))
		}
		e.members = append(e.members, s)
	}
	return e
}

// Members returns the member schedulers (shared, not copied).
func (e *Ensemble) Members() []scheduler.Scheduler { return e.members }

// Name implements scheduler.Scheduler.
func (e *Ensemble) Name() string { return e.name }

// ScheduleScratch implements scheduler.Scheduler: the best member
// schedule by makespan (ties go to the earlier member). Every member runs
// against the caller's scratch, and the incumbent best is kept in out.
// The member slice is fixed at construction and only read here, so one
// Ensemble is shared by every worker of a sweep like any other
// scheduler value.
func (e *Ensemble) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	tmp := scr.AcquireSchedule()
	defer scr.ReleaseSchedule(tmp)
	first := true
	for _, m := range e.members {
		if err := m.ScheduleScratch(inst, scr, tmp); err != nil {
			return fmt.Errorf("schedulers: ensemble member %s: %w", m.Name(), err)
		}
		if first || tmp.Makespan() < out.Makespan()-graph.Eps {
			out.CopyFrom(tmp)
			first = false
		}
	}
	return nil
}
