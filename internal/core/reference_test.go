package core

import (
	"math"

	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/scheduler"
)

// This test file retains the copy-and-rebuild annealing loop verbatim as
// the bit-identity oracle for the incremental inner loop in pisa.go: every
// iteration copies the current instance into a candidate buffer,
// perturbs the copy, and rebuilds the full cost tables before
// evaluating. RunReference must consume the identical RNG stream and
// produce byte-identical Results to Run — incremental_test.go asserts
// it per perturbation mode and scheduler pair, BenchmarkPISARun
// (pisa_bench_test.go) measures the speedup against it, and
// TestPISAIterationMemoizationGate enforces it. Do not "improve" this code; its value is that it
// does not share the mutate-in-place machinery it checks. The exported
// name keeps it usable from external test packages in this directory.

// RunReference executes PISA with the pre-incremental evaluation
// strategy: one full Instance copy and one full Tables rebuild per
// candidate. Results are bit-identical to Run; only the speed and
// allocation profile differ.
func RunReference(target, baseline scheduler.Scheduler, opts Options) (*Result, error) {
	if err := checkOptions(opts); err != nil {
		return nil, err
	}
	p := opts.Perturb.withDefaults()
	root := rng.New(opts.Seed)
	ev := newEvaluator(target, baseline, opts.Scratch)
	// The oracle evaluates without rank memoization: it rebuilds the full
	// tables per candidate anyway, and keeping the cache out of this loop
	// makes the bit-identity suite a genuine proof that the memoized path
	// (Run) changes nothing — and keeps the benchmark baseline honest.
	defer ev.scr.SetEvalCache(ev.scr.SetEvalCache(false))

	res := &Result{BestRatio: math.Inf(-1)}
	// One candidate and one incumbent-best buffer serve every annealing
	// chain: each iteration copies the current state into the candidate,
	// and pointer swaps implement acceptance. Only the returned
	// Result.Best is ever cloned out of the buffers.
	var cand, best *graph.Instance
	for restart := 0; restart < opts.Restarts; restart++ {
		r := root.Split()
		cur := prepare(opts.InitialInstance(r), p)
		curRatio, err := ev.ratio(cur)
		if err != nil {
			return nil, err
		}
		res.Evaluations++

		if best == nil {
			best = cur.Clone()
		} else {
			best.CopyFrom(cur)
		}
		bestRatio := curRatio
		if cand == nil {
			cand = cur.Clone()
		}
		temp := opts.TMax
		for iter := 0; temp > opts.TMin && iter < opts.MaxIters; iter++ {
			cand.CopyFrom(cur)
			refPerturb(cand, r, p)
			candRatio, err := ev.ratio(cand)
			if err != nil {
				return nil, err
			}
			res.Evaluations++

			accepted := false
			if candRatio > bestRatio {
				best.CopyFrom(cand)
				bestRatio = candRatio
				cur, cand = cand, cur
				curRatio = candRatio
				accepted = true
			} else {
				// Algorithm 1 line 9: accept a non-improving candidate
				// with probability exp(−(M'/M_best)/T).
				if r.Float64() < math.Exp(-(candRatio/bestRatio)/temp) {
					cur, cand = cand, cur
					curRatio = candRatio
					accepted = true
				}
			}
			if opts.RecordTrace {
				res.Trace = append(res.Trace, TracePoint{
					Restart:     restart,
					Iteration:   iter,
					Temperature: temp,
					Ratio:       candRatio,
					Best:        bestRatio,
					Accepted:    accepted,
				})
			}
			temp *= opts.Alpha
		}
		res.RestartRatios = append(res.RestartRatios, bestRatio)
		if bestRatio > res.BestRatio {
			res.Best, res.BestRatio = best.Clone(), bestRatio
		}
	}
	_ = res.Best.Validate() // best-effort sanity; instances stay valid by construction
	return res, nil
}

// refPerturb applies one randomly chosen perturbation to the instance
// in place — the original allocating implementation (Deps() slices,
// allocating reachability) whose RNG draw sequence the in-place
// operators in perturb.go must reproduce exactly.
func refPerturb(inst *graph.Instance, r *rng.RNG, p PerturbOptions) {
	ops := enabledOps(p)
	op := ops[r.Intn(len(ops))]
	switch op {
	case opNodeWeight:
		refPerturbNodeWeight(inst, r, p)
	case opLinkWeight:
		if !refPerturbLinkWeight(inst, r, p) {
			refPerturbNodeWeight(inst, r, p)
		}
	case opTaskWeight:
		refPerturbTaskWeight(inst, r, p)
	case opDepWeight:
		if !refPerturbDepWeight(inst, r, p) {
			refPerturbTaskWeight(inst, r, p)
		}
	case opAddDep:
		if !refPerturbAddDep(inst, r, p) {
			refPerturbTaskWeight(inst, r, p)
		}
	case opRemoveDep:
		if !refPerturbRemoveDep(inst, r) {
			refPerturbTaskWeight(inst, r, p)
		}
	}
}

func refPerturbNodeWeight(inst *graph.Instance, r *rng.RNG, p PerturbOptions) {
	v := r.Intn(inst.Net.NumNodes())
	inst.Net.Speeds[v] = clampRange(inst.Net.Speeds[v]+step(p, p.Speed, r), p.Speed, p.MinNetWeight)
}

func refPerturbLinkWeight(inst *graph.Instance, r *rng.RNG, p PerturbOptions) bool {
	n := inst.Net.NumNodes()
	if n < 2 {
		return false
	}
	u := r.Intn(n)
	v := r.Intn(n - 1)
	if v >= u {
		v++
	}
	cur := inst.Net.Links[u][v]
	inst.Net.SetLink(u, v, clampRange(cur+step(p, p.Link, r), p.Link, p.MinNetWeight))
	return true
}

func refPerturbTaskWeight(inst *graph.Instance, r *rng.RNG, p PerturbOptions) {
	t := r.Intn(inst.Graph.NumTasks())
	inst.Graph.Tasks[t].Cost = clampRange(inst.Graph.Tasks[t].Cost+step(p, p.TaskCost, r), p.TaskCost, 0)
}

func refPerturbDepWeight(inst *graph.Instance, r *rng.RNG, p PerturbOptions) bool {
	deps := inst.Graph.Deps()
	if len(deps) == 0 {
		return false
	}
	d := deps[r.Intn(len(deps))]
	cur, _ := inst.Graph.DepCost(d[0], d[1])
	inst.Graph.SetDepCost(d[0], d[1], clampRange(cur+step(p, p.DepCost, r), p.DepCost, 0))
	return true
}

func refPerturbAddDep(inst *graph.Instance, r *rng.RNG, p PerturbOptions) bool {
	g := inst.Graph
	n := g.NumTasks()
	if n < 2 {
		return false
	}
	const tries = 16
	for i := 0; i < tries; i++ {
		t := r.Intn(n)
		t2 := r.Intn(n - 1)
		if t2 >= t {
			t2++
		}
		if g.HasDep(t, t2) || g.Reaches(t2, t) {
			continue
		}
		g.MustAddDep(t, t2, r.Uniform(p.DepCost[0], p.DepCost[1]))
		return true
	}
	return false
}

func refPerturbRemoveDep(inst *graph.Instance, r *rng.RNG) bool {
	deps := inst.Graph.Deps()
	if len(deps) == 0 {
		return false
	}
	d := deps[r.Intn(len(deps))]
	return inst.Graph.RemoveDep(d[0], d[1])
}
