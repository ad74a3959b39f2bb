package experiments

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"saga/internal/datasets"
	"saga/internal/runner"
	"saga/internal/scheduler"
	"saga/internal/schedulers"
	"saga/internal/serialize"
)

// shardStores runs the given driver once per shard, each shard writing
// its cells to its own checkpoint store under dir, and returns the store
// paths. The drivers' in-memory results are discarded — exactly how
// `saga worker` uses them.
func shardStores(t *testing.T, dir, fingerprint string, count int, run func(ro runner.Options) error) []string {
	t.Helper()
	paths := make([]string, count)
	for i := 0; i < count; i++ {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.ckpt", i))
		ck := serialize.NewCheckpoint(paths[i])
		ck.SetFingerprint(fingerprint)
		ro := runner.Options{
			Workers:    2,
			Include:    runner.ShardSpec{Index: i, Count: count}.Owns,
			Checkpoint: ck,
		}
		if err := run(ro); err != nil {
			t.Fatalf("shard %d/%d: %v", i, count, err)
		}
	}
	return paths
}

// mergedResume merges the shard stores (verifying total coverage) and
// returns runner options that resume from the merged store, with a
// progress trace capturing how much was loaded versus recomputed.
func mergedResume(t *testing.T, dir, fingerprint string, total int, paths []string) (runner.Options, *[][2]int) {
	t.Helper()
	merged := filepath.Join(dir, "merged.ckpt")
	n, err := serialize.MergeCheckpoints(merged, fingerprint, total, paths)
	if err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("merge wrote %d cells, want %d", n, total)
	}
	ck := serialize.NewCheckpoint(merged)
	ck.SetFingerprint(fingerprint)
	calls := &[][2]int{}
	ro := runner.Options{Checkpoint: ck, Progress: func(done, total int) {
		*calls = append(*calls, [2]int{done, total})
	}}
	return ro, calls
}

// assertLoadedEverything fails unless the resumed sweep decoded every
// cell from the merged store and computed none: each phase makes exactly
// one progress call, at load time, already complete (a computed cell
// would add an intermediate done < total call).
func assertLoadedEverything(t *testing.T, label string, calls [][2]int) {
	t.Helper()
	if len(calls) == 0 {
		t.Fatalf("%s: merged store resumed nothing", label)
	}
	for _, c := range calls {
		if c[0] != c[1] {
			t.Fatalf("%s: merged store did not cover the sweep: progress %v", label, calls)
		}
	}
}

// TestShardedPairwiseMergeDeterminism is the distributed protocol end to
// end for the Fig 4 driver: shards computed in separate runner pools,
// stores merged with full-coverage verification, and the resumed run
// bit-identical to the sequential single-process reference.
func TestShardedPairwiseMergeDeterminism(t *testing.T) {
	scheds := []scheduler.Scheduler{
		mustSched(t, "HEFT"), mustSched(t, "CPoP"), mustSched(t, "MinMin"),
	}
	opts := smallAnneal(60)
	seq, err := pairwisePISARun(scheds, opts, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	const fp = "test-pairwise-sharded"
	totalCells := len(scheds) * (len(scheds) - 1)
	for _, count := range []int{2, 3, 5 /* more shards than some shards have cells */} {
		t.Run(fmt.Sprintf("shards=%d", count), func(t *testing.T) {
			dir := t.TempDir()
			paths := shardStores(t, dir, fp, count, func(ro runner.Options) error {
				_, err := pairwisePISARun(scheds, opts, ro)
				return err
			})
			ro, calls := mergedResume(t, dir, fp, totalCells, paths)
			par, err := pairwisePISARun(scheds, opts, ro)
			if err != nil {
				t.Fatal(err)
			}
			assertLoadedEverything(t, "pairwise", *calls)
			samePairwise(t, "sharded", seq, par)
		})
	}
}

// TestShardedFamilyMergeDeterminism covers the second driver class
// (sampling loops rather than PISA grids): a sharded Fig 7 family study
// merges back to the sequential reference bit for bit.
func TestShardedFamilyMergeDeterminism(t *testing.T) {
	scheds := []scheduler.Scheduler{mustSched(t, "CPoP"), mustSched(t, "HEFT")}
	const n, seed = 40, 9
	seq, err := familyRun(datasets.Fig7Instance, scheds, n, seed, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	const fp = "test-family-sharded"
	dir := t.TempDir()
	paths := shardStores(t, dir, fp, 4, func(ro runner.Options) error {
		_, err := familyRun(datasets.Fig7Instance, scheds, n, seed, ro)
		return err
	})
	ro, calls := mergedResume(t, dir, fp, n, paths)
	par, err := familyRun(datasets.Fig7Instance, scheds, n, seed, ro)
	if err != nil {
		t.Fatal(err)
	}
	assertLoadedEverything(t, "family", *calls)
	for _, name := range seq.Schedulers {
		if len(par.Makespans[name]) != n {
			t.Fatalf("%s: %d samples, want %d", name, len(par.Makespans[name]), n)
		}
	}
	sameFamily(t, "sharded", seq, par)
}

// TestShardedBenchmarkMergeDeterminism covers the Fig 2 sweep: one cell
// per dataset, each a map of per-scheduler summaries that round-trips
// through JSON. Three shards of five datasets merge back to the
// sequential reference bit for bit, through the registered sweep (the
// `figures -shard` and `saga worker -driver fig2` path) at a toy n.
func TestShardedBenchmarkMergeDeterminism(t *testing.T) {
	p := SweepParams{N: 2, Seed: 5}
	sw, compute, err := Fig2.Bind(p)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Cells != len(datasets.TableII) {
		t.Fatalf("fig2 cells %d, want one per Table II dataset (%d)", sw.Cells, len(datasets.TableII))
	}
	seq, err := benchmarking(datasets.TableII, schedulers.Experimental(), p.N, p.Seed)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	paths := shardStores(t, dir, sw.Fingerprint, 3, sw.Run)
	ro, calls := mergedResume(t, dir, sw.Fingerprint, sw.Cells, paths)
	par, err := compute(ro)
	if err != nil {
		t.Fatal(err)
	}
	assertLoadedEverything(t, "fig2", *calls)
	if !slices.Equal(par.Datasets, seq.Datasets) || !slices.Equal(par.Schedulers, seq.Schedulers) {
		t.Fatalf("sharded labels %v × %v, want %v × %v", par.Datasets, par.Schedulers, seq.Datasets, seq.Schedulers)
	}
	for _, ds := range seq.Datasets {
		for _, s := range seq.Schedulers {
			if a, b := seq.Cells[ds][s], par.Cells[ds][s]; a != b {
				t.Fatalf("%s/%s: sequential %+v, sharded %+v", ds, s, a, b)
			}
		}
	}
}

// TestShardedAppSpecificMergeDeterminism covers the one driver with an
// unstored phase: every shard recomputes the benchmarking phase in
// process, its stores hold only their own PISA cells (no cell is in two
// shard stores), and the merge of n(n-1) cells resumes to the
// sequential reference.
func TestShardedAppSpecificMergeDeterminism(t *testing.T) {
	scheds := []scheduler.Scheduler{
		mustSched(t, "HEFT"), mustSched(t, "CPoP"), mustSched(t, "FastestNode"),
	}
	p := SweepParams{Workflow: "blast", CCR: 1.0, N: 4, Iters: 40, Restarts: 1, Seed: 3}
	seq, err := appSpecificRun(scheds, p, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	const fp = "test-appspecific-sharded"
	total := len(scheds) * (len(scheds) - 1)
	dir := t.TempDir()
	paths := shardStores(t, dir, fp, 3, func(ro runner.Options) error {
		_, err := appSpecificRun(scheds, p, ro)
		return err
	})
	stored := 0
	for _, path := range paths {
		ck := serialize.NewCheckpoint(path)
		ck.SetFingerprint(fp)
		cells, err := ck.Load()
		if err != nil {
			t.Fatal(err)
		}
		stored += len(cells)
	}
	if stored != total {
		t.Fatalf("shard stores hold %d cells in all, want the %d PISA cells once each", stored, total)
	}
	ro, calls := mergedResume(t, dir, fp, total, paths)
	par, err := appSpecificRun(scheds, p, ro)
	if err != nil {
		t.Fatal(err)
	}
	assertLoadedEverything(t, "appspecific", *calls)
	sameAppSpecific(t, "sharded", seq, par)
}

// TestAppSpecificRefusesTwoPhaseStore pins the appspecific store's
// identity: its cells are the n(n-1) PISA cells alone, and a store
// stamped with the fingerprint of the layout that also stored the
// benchmarking cells ahead of them — same parameters, "n=" for "bench=" —
// is refused as a different sweep, never read at shifted indices.
func TestAppSpecificRefusesTwoPhaseStore(t *testing.T) {
	p := SweepParams{N: 4, Iters: 2, Restarts: 1, Seed: 1, Workflow: "blast", CCR: 1}
	sw, err := NewSweep("appspecific", p)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(schedulers.AppSpecificNames); sw.Cells != n*(n-1) {
		t.Fatalf("appspecific cells %d, want the %d PISA cells", sw.Cells, n*(n-1))
	}
	old := "appspecific workflow=blast ccr=1 seed=1 n=4 iters=2 restarts=1 schedulers=" +
		strings.Join(schedulers.AppSpecificNames, ",")
	if !strings.HasPrefix(sw.Fingerprint, "appspecific ") || sw.Fingerprint == old {
		t.Fatalf("fingerprint %q", sw.Fingerprint)
	}
	path := filepath.Join(t.TempDir(), "two-phase.ckpt")
	ck := serialize.NewCheckpoint(path)
	ck.SetFingerprint(old)
	if err := ck.Store(0, []byte(`{"Ratios":[1]}`)); err != nil {
		t.Fatal(err)
	}
	ck = serialize.NewCheckpoint(path)
	ck.SetFingerprint(sw.Fingerprint)
	err = sw.Run(runner.Options{Checkpoint: ck})
	if err == nil || !strings.Contains(err.Error(), "was written by a different sweep") {
		t.Fatalf("two-phase store: %v, want the different-sweep refusal", err)
	}
}

// TestShardedRunReturnsPartialResult pins the documented contract of a
// sharded driver's in-memory return value: owned cells populated,
// foreign cells left at their zero/absent markers.
func TestShardedRunReturnsPartialResult(t *testing.T) {
	scheds := []scheduler.Scheduler{mustSched(t, "HEFT"), mustSched(t, "CPoP")}
	shard := runner.ShardSpec{Index: 0, Count: 2} // owns cell 0 of the 2 off-diagonal cells
	res, err := pairwisePISARun(scheds, smallAnneal(60),
		runner.Options{Workers: 1, Include: shard.Owns})
	if err != nil {
		t.Fatal(err)
	}
	// Cell k=0 is (i,j) = (0,1); cell k=1 is (1,0) and belongs to shard 1.
	if res.Ratios[0][1] <= 0 || res.Instances[0][1] == nil {
		t.Fatalf("owned cell missing: %+v", res.Ratios)
	}
	if res.Ratios[1][0] != -1 || res.Instances[1][0] != nil {
		t.Fatalf("foreign cell populated: %+v", res.Ratios)
	}
}

// TestSweepsRefuseNBelowOne: a sweep sized by n refuses n < 1 with one
// error naming n, before any cell runs, instead of panicking on a
// negative slice length or rendering an empty result.
func TestSweepsRefuseNBelowOne(t *testing.T) {
	raw, err := serialize.MarshalInstance(datasets.Fig1Instance())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -1} {
		want := fmt.Sprintf("n = %d", n)
		for _, name := range []string{"fig2", "fig7", "fig8", "appspecific", "robustness"} {
			p := SweepParams{N: n, Seed: 1, Scheduler: "HEFT", Sigma: 0.2, InstanceRaw: raw,
				Workflow: "blast", CCR: 1, Iters: 2, Restarts: 1}
			if _, err := NewSweep(name, p); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("NewSweep(%s) with n = %d: %v", name, n, err)
			}
		}
		ro := runner.Options{Progress: func(int, int) { t.Fatal("a cell ran") }}
		if _, err := BenchmarkingRun([]string{"chains"}, schedulers.Experimental(), n, 1, ro); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("BenchmarkingRun with n = %d: %v", n, err)
		}
	}
}

func TestNewSweepRegistry(t *testing.T) {
	raw, err := serialize.MarshalInstance(datasets.Fig1Instance())
	if err != nil {
		t.Fatal(err)
	}
	p := SweepParams{
		N: 20, Iters: 250, Restarts: 3, Seed: 1, Workflow: "srasearch", CCR: 1.0,
		Scheduler: "HEFT", Sigma: 0.2, InstanceRaw: raw,
		Schedulers: []string{"HEFT", "CPoP"},
	}
	for _, name := range SweepNames {
		sw, err := NewSweep(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sw.Name != name || sw.Cells <= 0 || sw.Fingerprint == "" {
			t.Fatalf("%s: malformed sweep %+v", name, sw)
		}
		if !strings.HasPrefix(sw.Fingerprint, name+" ") {
			t.Fatalf("%s: fingerprint %q does not identify the sweep", name, sw.Fingerprint)
		}
	}
	// The fingerprint must pin the parameters: any change refuses a resume.
	a, _ := NewSweep("fig4", p)
	p2 := p
	p2.Iters = 251
	b, _ := NewSweep("fig4", p2)
	if a.Fingerprint == b.Fingerprint {
		t.Fatal("fig4 fingerprint ignores iters")
	}
	// Fig 2's cells are Table II's datasets, and its fingerprint pins
	// n and the seed.
	f2, err := NewSweep("fig2", p)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Cells != len(datasets.TableII) {
		t.Fatalf("fig2 cells %d, want %d", f2.Cells, len(datasets.TableII))
	}
	for _, change := range []func(*SweepParams){
		func(q *SweepParams) { q.N++ },
		func(q *SweepParams) { q.Seed++ },
	} {
		q := p
		change(&q)
		if g, err := NewSweep("fig2", q); err != nil || g.Fingerprint == f2.Fingerprint {
			t.Fatalf("fig2 fingerprint %q ignores a parameter change (%v)", f2.Fingerprint, err)
		}
	}
	if _, err := NewSweep("fig99", p); err == nil {
		t.Fatal("unknown sweep accepted")
	}
	bad := p
	bad.CCR = 0
	if _, err := NewSweep("appspecific", bad); err == nil {
		t.Fatal("appspecific sweep accepted without a CCR block")
	}
	bad = p
	bad.Scheduler = ""
	if _, err := NewSweep("robustness", bad); err == nil {
		t.Fatal("robustness sweep accepted without a scheduler")
	}
	bad = p
	bad.InstanceRaw = nil
	if _, err := NewSweep("robustness", bad); err == nil {
		t.Fatal("robustness sweep accepted without instance bytes")
	}
	bad = p
	bad.Schedulers = []string{"HEFT"}
	if _, err := NewSweep("pairwise", bad); err == nil {
		t.Fatal("pairwise sweep accepted with fewer than 2 schedulers")
	}
	bad = p
	bad.Schedulers = []string{"HEFT", "NoSuchScheduler"}
	if _, err := NewSweep("pairwise", bad); err == nil {
		t.Fatal("pairwise sweep accepted an unknown scheduler")
	}
	// ChainWorkers must NOT enter any fingerprint: results are
	// bit-identical at every worker count, so stores written at different
	// intra-cell parallelism are interchangeable.
	for _, name := range SweepNames {
		p2 := p
		p2.ChainWorkers = 7
		a, err := NewSweep(name, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewSweep(name, p2)
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint != b.Fingerprint {
			t.Fatalf("%s: fingerprint depends on ChainWorkers", name)
		}
	}
}

// TestShardedRobustnessMergeDeterminism is satellite coverage for the
// robustness sweep joining the distributed protocol: shards run through
// the Sweep closure (the `saga worker` path), the merged store resumes
// through the direct robustnessRun call (the `saga robustness` path),
// and the summaries match the sequential reference bit for bit.
func TestShardedRobustnessMergeDeterminism(t *testing.T) {
	inst := datasets.Fig1Instance()
	raw, err := serialize.MarshalInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	p := SweepParams{N: 30, Seed: 11, Scheduler: "HEFT", Sigma: 0.3, InstanceRaw: raw}
	sw, err := NewSweep("robustness", p)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Cells != p.N {
		t.Fatalf("robustness cells %d, want %d", sw.Cells, p.N)
	}
	seq, err := robustnessRun(inst, mustSched(t, "HEFT"), p.Sigma, p.N, p.Seed, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	paths := shardStores(t, dir, sw.Fingerprint, 3, sw.Run)
	ro, calls := mergedResume(t, dir, sw.Fingerprint, sw.Cells, paths)
	par, err := robustnessRun(inst, mustSched(t, "HEFT"), p.Sigma, p.N, p.Seed, ro)
	if err != nil {
		t.Fatal(err)
	}
	assertLoadedEverything(t, "robustness", *calls)
	if seq.Nominal != par.Nominal || seq.Static != par.Static || seq.Adaptive != par.Adaptive {
		t.Fatalf("sharded union diverged:\nsequential %+v\nsharded    %+v", seq, par)
	}
}

// TestSweepRunMatchesDriverFingerprint runs one shard through the Sweep
// closure (the `saga worker` path) and resumes the merged store through
// the direct driver call (the `figures` path), proving the two CLIs
// interoperate on one store.
func TestSweepRunMatchesDriverFingerprint(t *testing.T) {
	p := SweepParams{N: 12, Seed: 9}
	sw, err := NewSweep("fig7", p)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Cells != p.N {
		t.Fatalf("fig7 cells %d, want %d", sw.Cells, p.N)
	}
	dir := t.TempDir()
	paths := shardStores(t, dir, sw.Fingerprint, 2, sw.Run)
	ro, calls := mergedResume(t, dir, sw.Fingerprint, sw.Cells, paths)

	scheds := []scheduler.Scheduler{mustSched(t, "CPoP"), mustSched(t, "HEFT")}
	seq, err := familyRun(datasets.Fig7Instance, scheds, p.N, p.Seed, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := familyRun(datasets.Fig7Instance, scheds, p.N, p.Seed, ro)
	if err != nil {
		t.Fatal(err)
	}
	assertLoadedEverything(t, "fig7 sweep", *calls)
	sameFamily(t, "sweep", seq, par)
}
