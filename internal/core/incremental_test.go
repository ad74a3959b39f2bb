package core

import (
	"math"
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/scheduler"
	_ "saga/internal/schedulers"
	"saga/internal/serialize"
)

// fingerprint is the byte identity used throughout these tests: the
// deterministic JSON serialization covers every weight, the adjacency
// order, and the network, so equal bytes mean equal instances.
func fingerprint(t *testing.T, inst *graph.Instance) []byte {
	t.Helper()
	data, err := serialize.MarshalInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// incrementalModes are the perturbation configurations the bit-identity
// suite sweeps: together they exercise all six operators (general), the
// homogeneity-pinned subsets, and the Section VII application-specific
// restriction (no structure changes, links pinned and kept).
func incrementalModes() map[string]PerturbOptions {
	appSpecific := DefaultPerturb()
	appSpecific.FixStructure = true
	appSpecific.FixLinks = true
	appSpecific.KeepPinnedWeights = true
	fixSpeeds := DefaultPerturb()
	fixSpeeds.FixSpeeds = true
	fixLinks := DefaultPerturb()
	fixLinks.FixLinks = true
	return map[string]PerturbOptions{
		"general":     DefaultPerturb(),
		"fixSpeeds":   fixSpeeds,
		"fixLinks":    fixLinks,
		"appSpecific": appSpecific,
	}
}

// TestRunTracePreallocated pins the satellite requirement that tracing
// never grows the trace slice inside the hot loop: the capacity is
// exactly the preallocated Restarts×MaxIters (append growth would have
// replaced it with a larger block).
func TestRunTracePreallocated(t *testing.T) {
	opts := testOptions(27)
	opts.RecordTrace = true
	res, err := Run(mustSched(t, "HEFT"), mustSched(t, "CPoP"), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := opts.Restarts * opts.MaxIters
	if cap(res.Trace) != want {
		t.Fatalf("trace capacity %d; want the preallocated %d (append growth fired in the hot loop)", cap(res.Trace), want)
	}
	if len(res.Trace) == 0 || len(res.Trace) > want {
		t.Fatalf("trace length %d outside (0, %d]", len(res.Trace), want)
	}
}

// TestPISASteadyStateZeroAlloc gates the steady-state accept/reject
// cycle at zero heap allocations: perturb in place, patch tables,
// schedule the target, bound its ratio by the instance's lower bound,
// schedule the baseline, record a trace point into a preallocated
// buffer, and roll back (reject) or keep and copy into the incumbent
// (accept). A long mixed-operator warm-up first drives every buffer to
// its high-water mark, exactly as a real annealing chain does.
func TestPISASteadyStateZeroAlloc(t *testing.T) {
	p := DefaultPerturb().withDefaults()
	r := rng.New(0x5eed)
	cur := prepare(datasets.InitialPISAInstance(r.Split()), p)
	scr := scheduler.NewScratch()
	ev := newEvaluator(mustSched(t, "HEFT"), mustSched(t, "CPoP"), scr)
	ps := &perturbState{ops: enabledOps(p)}
	tab := ev.prepare(cur)
	best := cur.Clone()
	trace := make([]TracePoint, 0, 4096)

	cycle := func(accept bool) {
		perturbInPlace(cur, r, p, ps)
		applyTables(tab, ps)
		mt, err := ev.targetMakespan(cur)
		if err != nil {
			t.Fatal(err)
		}
		bound, bounded := ev.ratioBound(cur, mt)
		ratio, err := ev.ratioOver(cur, mt)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(ratio) || bounded && ratio > bound {
			t.Fatalf("ratio %v, bound %v", ratio, bound)
		}
		if accept {
			best.CopyFrom(cur)
		} else {
			revert(cur, tab, ps)
		}
		if len(trace) == cap(trace) {
			trace = trace[:0]
		}
		trace = append(trace, TracePoint{Ratio: ratio, Accepted: accept})
	}

	for i := 0; i < 3000; i++ {
		cycle(i%3 == 0)
	}
	allocs := testing.AllocsPerRun(400, func() {
		cycle(false)
		cycle(true)
	})
	if allocs != 0 {
		t.Fatalf("steady-state accept/reject cycle allocates %.2f times per op; want 0", allocs)
	}
}
