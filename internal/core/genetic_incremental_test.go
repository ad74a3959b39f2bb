package core

import (
	"bytes"
	"testing"

	"saga/internal/datasets"
	"saga/internal/rng"
	_ "saga/internal/schedulers"
)

// TestRunGAReferenceRejectsSameOptions pins that the two entry points
// validate identically (same error text for the same bad input).
func TestRunGAReferenceRejectsSameOptions(t *testing.T) {
	bads := []func(*GAOptions){
		func(o *GAOptions) { o.InitialInstance = nil },
		func(o *GAOptions) { o.PopulationSize = 1 },
		func(o *GAOptions) { o.Generations = 0 },
		func(o *GAOptions) { o.MutationRate = 1.5 },
		func(o *GAOptions) { o.Perturb.Step = -0.5 },
		func(o *GAOptions) { o.Perturb.Speed = [2]float64{1, 0} },
	}
	for i, mutate := range bads {
		a := gaTestOptions(1)
		mutate(&a)
		_, errInc := RunGA(mustSched(t, "HEFT"), mustSched(t, "CPoP"), a)
		_, errRef := RunGAReference(mustSched(t, "HEFT"), mustSched(t, "CPoP"), a)
		if errInc == nil || errRef == nil {
			t.Fatalf("case %d: invalid GA options accepted (inc=%v, ref=%v)", i, errInc, errRef)
		}
		if errInc.Error() != errRef.Error() {
			t.Fatalf("case %d: divergent validation errors:\nincremental %v\nreference   %v", i, errInc, errRef)
		}
	}
}

// TestRunGABestOwnsItsInstance pins that the incremental loop's bank
// recycling never leaks a reused buffer into the result: mutating the
// returned best instance must not be observable through a second
// identical run.
func TestRunGABestOwnsItsInstance(t *testing.T) {
	opts := gaTestOptions(31)
	a, err := RunGA(mustSched(t, "HEFT"), mustSched(t, "CPoP"), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, a.Best)
	a.Best.Graph.Tasks[0].Cost = 1e6 // scribble on the returned instance
	b, err := RunGA(mustSched(t, "HEFT"), mustSched(t, "CPoP"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, fingerprint(t, b.Best)) {
		t.Fatal("second identical run returned a different best — results share state")
	}
}

// TestCrossoverIntoMatchesCrossover drives the in-place crossover and
// the allocating reference through identical RNG streams over many
// random parent pairs (compatible and not) and asserts byte-identical
// children — the core equivalence the GA bit-identity rests on.
func TestCrossoverIntoMatchesCrossover(t *testing.T) {
	r1 := rng.New(0xc0de)
	r2 := rng.New(0xc0de)
	for trial := 0; trial < 60; trial++ {
		pa := datasets.InitialPISAInstance(r1.Split())
		r2.Split() // keep streams aligned
		pb := datasets.InitialPISAInstance(r1.Split())
		r2.Split()
		a := individual{inst: pa, ratio: r1.Float64()}
		b := individual{inst: pb, ratio: r2.Float64()}
		if a.ratio != b.ratio {
			t.Fatal("test harness RNG streams desynchronized")
		}
		want := crossover(a, b, r1)
		got := crossoverInto(nil, a, b, r2)
		if !bytes.Equal(fingerprint(t, want), fingerprint(t, got)) {
			t.Fatalf("trial %d: crossoverInto diverged from crossover", trial)
		}
		// And again into a warm (dirty) buffer.
		got2 := crossoverInto(got, b, a, r2)
		want2 := crossover(b, a, r1)
		if !bytes.Equal(fingerprint(t, want2), fingerprint(t, got2)) {
			t.Fatalf("trial %d: warm-buffer crossoverInto diverged", trial)
		}
	}
}
