package schedulers

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"saga/internal/graph"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// quickInstance wraps a problem instance so testing/quick can generate
// random ones: random DAG (edges only from lower to higher index),
// random positive weights, random network.
type quickInstance struct {
	inst *graph.Instance
}

// Generate implements quick.Generator.
func (quickInstance) Generate(r *rand.Rand, size int) reflect.Value {
	nTasks := r.Intn(7) + 1
	nNodes := r.Intn(4) + 1
	g := graph.NewTaskGraph()
	for i := 0; i < nTasks; i++ {
		g.AddTask("t", r.Float64()*10)
	}
	for i := 0; i < nTasks; i++ {
		for j := i + 1; j < nTasks; j++ {
			if r.Intn(3) == 0 {
				g.MustAddDep(i, j, r.Float64()*10)
			}
		}
	}
	net := graph.NewNetwork(nNodes)
	for v := 0; v < nNodes; v++ {
		net.Speeds[v] = 0.1 + r.Float64()*5
		for u := v + 1; u < nNodes; u++ {
			net.SetLink(v, u, 0.1+r.Float64()*5)
		}
	}
	return reflect.ValueOf(quickInstance{inst: graph.NewInstance(g, net)})
}

// TestQuickAllSchedulersValid drives every polynomial algorithm through
// testing/quick-generated instances: the Section II validity conditions
// are the invariant.
func TestQuickAllSchedulersValid(t *testing.T) {
	scheds := Experimental()
	property := func(qi quickInstance) bool {
		if err := qi.inst.Validate(); err != nil {
			return false
		}
		for _, s := range scheds {
			sch, err := scheduler.Schedule(s, qi.inst)
			if err != nil {
				return false
			}
			if err := schedule.Validate(qi.inst, sch); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMakespanLowerBounds: no schedule can beat the
// total-work-over-total-speed bound or the best-speed critical path.
func TestQuickMakespanLowerBounds(t *testing.T) {
	heft, _ := scheduler.New("HEFT")
	property := func(qi quickInstance) bool {
		inst := qi.inst
		sch, err := scheduler.Schedule(heft, inst)
		if err != nil {
			return false
		}
		work, sumSpeed := 0.0, 0.0
		for _, tk := range inst.Graph.Tasks {
			work += tk.Cost
		}
		for _, sp := range inst.Net.Speeds {
			sumSpeed += sp
		}
		return sch.Makespan() >= work/sumSpeed-graph.Eps
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickScaleInvariance: multiplying every task and dependency cost
// by a constant k scales every list schedule's makespan by exactly k
// (the model is linear in costs).
func TestQuickScaleInvariance(t *testing.T) {
	heft, _ := scheduler.New("HEFT")
	cpop, _ := scheduler.New("CPoP")
	property := func(qi quickInstance, kRaw uint8) bool {
		k := 1 + float64(kRaw%50)
		scaled := qi.inst.Clone()
		for i := range scaled.Graph.Tasks {
			scaled.Graph.Tasks[i].Cost *= k
		}
		for _, d := range scaled.Graph.Deps() {
			c, _ := scaled.Graph.DepCost(d[0], d[1])
			scaled.Graph.SetDepCost(d[0], d[1], c*k)
		}
		for _, s := range []scheduler.Scheduler{heft, cpop} {
			a, err := scheduler.Schedule(s, qi.inst)
			if err != nil {
				return false
			}
			b, err := scheduler.Schedule(s, scaled)
			if err != nil {
				return false
			}
			// Relative comparison: scaling can hit float noise, so use a
			// relative epsilon.
			if diff := b.Makespan() - k*a.Makespan(); diff > 1e-6*(1+k*a.Makespan()) || -diff > 1e-6*(1+k*a.Makespan()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSpeedScaling: multiplying every node speed by k divides a
// communication-free schedule's makespan by k. (Communication times are
// unaffected by node speeds, so restrict to zero-data graphs.)
func TestQuickSpeedScaling(t *testing.T) {
	heft, _ := scheduler.New("HEFT")
	property := func(qi quickInstance, kRaw uint8) bool {
		k := 2 + float64(kRaw%10)
		base := qi.inst.Clone()
		for _, d := range base.Graph.Deps() {
			base.Graph.SetDepCost(d[0], d[1], 0)
		}
		fast := base.Clone()
		for v := range fast.Net.Speeds {
			fast.Net.Speeds[v] *= k
		}
		a, err := scheduler.Schedule(heft, base)
		if err != nil {
			return false
		}
		b, err := scheduler.Schedule(heft, fast)
		if err != nil {
			return false
		}
		diff := a.Makespan()/k - b.Makespan()
		return diff < 1e-6*(1+b.Makespan()) && -diff < 1e-6*(1+b.Makespan())
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
