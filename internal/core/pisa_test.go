package core

import (
	"math"
	"strings"
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/scheduler"
	_ "saga/internal/schedulers"
)

func mustSched(t *testing.T, name string) scheduler.Scheduler {
	t.Helper()
	s, err := scheduler.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testOptions(seed uint64) Options {
	o := DefaultOptions()
	o.MaxIters = 120
	o.Restarts = 2
	o.Seed = seed
	o.InitialInstance = datasets.InitialPISAInstance
	return o
}

func TestRunFindsAdversarialInstance(t *testing.T) {
	res, err := Run(mustSched(t, "HEFT"), mustSched(t, "CPoP"), testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best instance returned")
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("best instance invalid: %v", err)
	}
	if res.BestRatio <= 1 {
		t.Fatalf("PISA found no instance where HEFT loses to CPoP (ratio %v)", res.BestRatio)
	}
	if len(res.RestartRatios) != 2 {
		t.Fatalf("restart count = %d, want 2", len(res.RestartRatios))
	}
}

func TestRunBestRatioMatchesSchedulers(t *testing.T) {
	target, base := mustSched(t, "MinMin"), mustSched(t, "MaxMin")
	res, err := Run(target, base, testOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	st, err := target.Schedule(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := base.Schedule(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Makespan() / sb.Makespan(); !graph.ApproxEq(got, res.BestRatio) {
		t.Fatalf("reported ratio %v, re-evaluated %v", res.BestRatio, got)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(mustSched(t, "HEFT"), mustSched(t, "FastestNode"), testOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mustSched(t, "HEFT"), mustSched(t, "FastestNode"), testOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.BestRatio != b.BestRatio {
		t.Fatalf("same seed, different results: %v vs %v", a.BestRatio, b.BestRatio)
	}
}

func TestRunRespectsSpeedConstraint(t *testing.T) {
	opts := testOptions(9)
	opts.Perturb = DefaultPerturb()
	opts.Perturb.FixSpeeds = true
	res, err := Run(mustSched(t, "ETF"), mustSched(t, "HEFT"), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Best.Net.Speeds {
		if s != 1 {
			t.Fatalf("pinned speed changed to %v", s)
		}
	}
}

func TestRunRespectsLinkConstraint(t *testing.T) {
	opts := testOptions(11)
	opts.Perturb = DefaultPerturb()
	opts.Perturb.FixLinks = true
	res, err := Run(mustSched(t, "GDL"), mustSched(t, "HEFT"), opts)
	if err != nil {
		t.Fatal(err)
	}
	net := res.Best.Net
	for u := 0; u < net.NumNodes(); u++ {
		for v := u + 1; v < net.NumNodes(); v++ {
			if net.Links[u][v] != 1 {
				t.Fatalf("pinned link changed to %v", net.Links[u][v])
			}
		}
	}
}

func TestRunStructureFixedKeepsTopology(t *testing.T) {
	opts := testOptions(13)
	opts.Perturb = DefaultPerturb()
	opts.Perturb.FixStructure = true
	base := datasets.InitialPISAInstance(rng.New(99))
	wantTasks := base.Graph.NumTasks()
	wantDeps := base.Graph.NumDeps()
	opts.InitialInstance = func(r *rng.RNG) *graph.Instance { return base.Clone() }
	res, err := Run(mustSched(t, "HEFT"), mustSched(t, "CPoP"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Graph.NumTasks() != wantTasks || res.Best.Graph.NumDeps() != wantDeps {
		t.Fatalf("structure changed under FixStructure: %d tasks / %d deps, want %d / %d",
			res.Best.Graph.NumTasks(), res.Best.Graph.NumDeps(), wantTasks, wantDeps)
	}
	for _, d := range base.Graph.Deps() {
		if !res.Best.Graph.HasDep(d[0], d[1]) {
			t.Fatalf("dependency (%d,%d) vanished under FixStructure", d[0], d[1])
		}
	}
}

func TestRunOnImproveMonotonic(t *testing.T) {
	opts := testOptions(15)
	last, lastIter := 0.0, -1
	opts.OnImprove = func(iter int, ratio float64) {
		if iter <= lastIter {
			// New restart: the incumbent best resets.
			last = 0
		}
		lastIter = iter
		if ratio < last {
			t.Fatalf("OnImprove ratio decreased within a restart: %v after %v", ratio, last)
		}
		last = ratio
	}
	if _, err := Run(mustSched(t, "MCT"), mustSched(t, "HEFT"), opts); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	good := testOptions(1)
	nan := math.NaN()
	cases := []func(*Options){
		func(o *Options) { o.InitialInstance = nil },
		func(o *Options) { o.MaxIters = 0 },
		func(o *Options) { o.Restarts = 0 },
		func(o *Options) { o.Alpha = 1.5 },
		func(o *Options) { o.Alpha = nan },
		func(o *Options) { o.TMin = -1 },
		func(o *Options) { o.TMax = 0.05 },                       // below TMin
		func(o *Options) { o.TMax = math.Inf(1) },                // never cools
		func(o *Options) { o.Perturb.Step = -0.1 },               // inverted step
		func(o *Options) { o.Perturb.Step = nan },                //
		func(o *Options) { o.Perturb.Link = [2]float64{1, 0.2} }, // inverted range
		func(o *Options) { o.Perturb.TaskCost = [2]float64{nan, 1} },
		func(o *Options) { o.Perturb.DepCost = [2]float64{0, math.Inf(1)} }, // infinite bound
		func(o *Options) { o.Perturb.MinNetWeight = -5 },
		func(o *Options) { o.Perturb.MinNetWeight = math.Inf(1) },
	}
	for i, mutate := range cases {
		o := good
		mutate(&o)
		_, errRun := Run(mustSched(t, "HEFT"), mustSched(t, "CPoP"), o)
		_, errRef := RunReference(mustSched(t, "HEFT"), mustSched(t, "CPoP"), o)
		if errRun == nil || errRef == nil {
			t.Errorf("case %d: invalid options accepted (run=%v, ref=%v)", i, errRun, errRef)
			continue
		}
		if errRun.Error() != errRef.Error() {
			t.Errorf("case %d: Run and RunReference reject differently:\n%v\n%v", i, errRun, errRef)
		}
	}
}

// TestTracePreallocCapped pins the satellite fix for pathological
// budgets: the up-front trace capacity is overflow-safe and bounded by
// maxTracePrealloc, while sane budgets still get their exact product
// (TestRunTracePreallocated asserts the hot loop relies on that).
func TestTracePreallocCapped(t *testing.T) {
	cases := []struct {
		restarts, maxIters, want int
	}{
		{2, 120, 240},
		{5, 1000, 5000},
		{1, maxTracePrealloc, maxTracePrealloc},
		{2, maxTracePrealloc, maxTracePrealloc},              // over the cap
		{1 << 31, 1 << 31, maxTracePrealloc},                 // product overflows on 32-bit int
		{math.MaxInt / 2, math.MaxInt / 2, maxTracePrealloc}, // product overflows everywhere
	}
	for _, c := range cases {
		if got := tracePrealloc(c.restarts, c.maxIters); got != c.want {
			t.Errorf("tracePrealloc(%d, %d) = %d, want %d", c.restarts, c.maxIters, got, c.want)
		}
	}
}

func TestRunKeepPinnedWeights(t *testing.T) {
	opts := testOptions(17)
	opts.Perturb = DefaultPerturb()
	opts.Perturb.FixLinks = true
	opts.Perturb.KeepPinnedWeights = true
	// Initial instance with distinctive link strength 0.42.
	opts.InitialInstance = func(r *rng.RNG) *graph.Instance {
		inst := datasets.InitialPISAInstance(r)
		for u := 0; u < inst.Net.NumNodes(); u++ {
			for v := u + 1; v < inst.Net.NumNodes(); v++ {
				inst.Net.SetLink(u, v, 0.42)
			}
		}
		return inst
	}
	res, err := Run(mustSched(t, "HEFT"), mustSched(t, "CPoP"), opts)
	if err != nil {
		t.Fatal(err)
	}
	net := res.Best.Net
	for u := 0; u < net.NumNodes(); u++ {
		for v := u + 1; v < net.NumNodes(); v++ {
			if net.Links[u][v] != 0.42 {
				t.Fatalf("KeepPinnedWeights lost the initial link strength: %v", net.Links[u][v])
			}
		}
	}
}

func TestEvaluateInfiniteRatio(t *testing.T) {
	// A zero-makespan baseline (all-zero costs on FastestNode) yields an
	// infinite ratio rather than NaN.
	g := graph.NewTaskGraph()
	g.AddTask("a", 0)
	inst := graph.NewInstance(g, graph.NewNetwork(2))
	zero := mustSched(t, "FastestNode")
	r, err := evaluate(zero, zero, inst)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("0/0 ratio = %v, want 1", r)
	}
}

func TestRunRecordTrace(t *testing.T) {
	opts := testOptions(23)
	opts.RecordTrace = true
	res, err := Run(mustSched(t, "HEFT"), mustSched(t, "CPoP"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	// One point per candidate evaluation minus the initial evaluations.
	if len(res.Trace) != res.Evaluations-opts.Restarts {
		t.Fatalf("trace length %d, evaluations %d, restarts %d",
			len(res.Trace), res.Evaluations, opts.Restarts)
	}
	// Within each restart: temperature strictly decreasing, best
	// non-decreasing, iterations increasing.
	for i := 1; i < len(res.Trace); i++ {
		p, q := res.Trace[i-1], res.Trace[i]
		if q.Restart == p.Restart {
			if q.Temperature >= p.Temperature {
				t.Fatal("temperature not cooling")
			}
			if q.Iteration != p.Iteration+1 {
				t.Fatal("iterations not consecutive")
			}
			if q.Best < p.Best {
				t.Fatal("incumbent best decreased within a restart")
			}
		}
	}
	csv := res.TraceCSV()
	if !strings.HasPrefix(csv, "restart,iteration,temperature,ratio,best,accepted\n") {
		t.Fatalf("trace CSV header wrong:\n%.80s", csv)
	}
	if strings.Count(csv, "\n") != len(res.Trace)+1 {
		t.Fatal("trace CSV row count wrong")
	}
}

func TestRunTraceOffByDefault(t *testing.T) {
	res, err := Run(mustSched(t, "HEFT"), mustSched(t, "CPoP"), testOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 0 {
		t.Fatal("trace recorded without RecordTrace")
	}
}

// evaluate is the one-shot form of evaluator.ratio, for tests that
// score a single instance.
func evaluate(target, baseline scheduler.Scheduler, inst *graph.Instance) (float64, error) {
	return newEvaluator(target, baseline, nil).ratio(inst)
}
