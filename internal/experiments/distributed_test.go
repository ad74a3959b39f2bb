package experiments

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"saga/internal/datasets"
	"saga/internal/runner"
	"saga/internal/scheduler"
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
			Shard:      runner.ShardSpec{Index: i, Count: count},
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
	opts := PairwiseOptions{Anneal: smallAnneal(60)}
	seq, err := PairwisePISARun(scheds, opts, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	const fp = "test-pairwise-sharded"
	totalCells := len(scheds) * (len(scheds) - 1)
	for _, count := range []int{2, 3, 5 /* more shards than some shards have cells */} {
		t.Run(fmt.Sprintf("shards=%d", count), func(t *testing.T) {
			dir := t.TempDir()
			paths := shardStores(t, dir, fp, count, func(ro runner.Options) error {
				_, err := PairwisePISARun(scheds, opts, ro)
				return err
			})
			ro, calls := mergedResume(t, dir, fp, totalCells, paths)
			par, err := PairwisePISARun(scheds, opts, ro)
			if err != nil {
				t.Fatal(err)
			}
			assertLoadedEverything(t, "pairwise", *calls)
			for i := range seq.Ratios {
				for j := range seq.Ratios[i] {
					if seq.Ratios[i][j] != par.Ratios[i][j] {
						t.Fatalf("cell (%d,%d): sequential %v, sharded %v", i, j, seq.Ratios[i][j], par.Ratios[i][j])
					}
					if i == j {
						continue
					}
					a, err := serialize.MarshalInstance(seq.Instances[i][j])
					if err != nil {
						t.Fatal(err)
					}
					b, err := serialize.MarshalInstance(par.Instances[i][j])
					if err != nil {
						t.Fatal(err)
					}
					if string(a) != string(b) {
						t.Fatalf("cell (%d,%d): adversarial instances differ", i, j)
					}
				}
			}
			for j := range seq.Worst {
				if seq.Worst[j] != par.Worst[j] {
					t.Fatalf("Worst[%d]: sequential %v, sharded %v", j, seq.Worst[j], par.Worst[j])
				}
			}
		})
	}
}

// TestShardedFamilyMergeDeterminism covers the second driver class
// (sampling loops rather than PISA grids): a sharded Fig 7 family study
// merges back to the sequential reference bit for bit.
func TestShardedFamilyMergeDeterminism(t *testing.T) {
	scheds := []scheduler.Scheduler{mustSched(t, "CPoP"), mustSched(t, "HEFT")}
	const n, seed = 40, 9
	seq, err := FamilyRun(datasets.Fig7Instance, scheds, n, seed, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	const fp = "test-family-sharded"
	dir := t.TempDir()
	paths := shardStores(t, dir, fp, 4, func(ro runner.Options) error {
		_, err := FamilyRun(datasets.Fig7Instance, scheds, n, seed, ro)
		return err
	})
	ro, calls := mergedResume(t, dir, fp, n, paths)
	par, err := FamilyRun(datasets.Fig7Instance, scheds, n, seed, ro)
	if err != nil {
		t.Fatal(err)
	}
	assertLoadedEverything(t, "family", *calls)
	for _, name := range seq.Schedulers {
		if len(par.Makespans[name]) != n {
			t.Fatalf("%s: %d samples, want %d", name, len(par.Makespans[name]), n)
		}
		for i := range seq.Makespans[name] {
			if seq.Makespans[name][i] != par.Makespans[name][i] {
				t.Fatalf("%s sample %d: sequential %v, sharded %v",
					name, i, seq.Makespans[name][i], par.Makespans[name][i])
			}
		}
		if seq.Summaries[name] != par.Summaries[name] {
			t.Fatalf("%s summary: sequential %+v, sharded %+v", name, seq.Summaries[name], par.Summaries[name])
		}
	}
}

// TestShardedAppSpecificMergeDeterminism exercises the hardest store
// layout: two sweep phases multiplexed through OffsetCheckpoint windows,
// with the benchmarking window duplicated (identically) across every
// shard store and deduplicated by the merge.
func TestShardedAppSpecificMergeDeterminism(t *testing.T) {
	scheds := []scheduler.Scheduler{
		mustSched(t, "HEFT"), mustSched(t, "CPoP"), mustSched(t, "FastestNode"),
	}
	opts := AppSpecificOptions{
		Workflow:           "blast",
		CCR:                1.0,
		BenchmarkInstances: 4,
		Anneal:             smallAnneal(3),
	}
	opts.Anneal.MaxIters = 40
	seq, err := AppSpecificRun(scheds, opts, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	const fp = "test-appspecific-sharded"
	total := opts.BenchmarkInstances + len(scheds)*(len(scheds)-1)
	dir := t.TempDir()
	paths := shardStores(t, dir, fp, 3, func(ro runner.Options) error {
		_, err := AppSpecificRun(scheds, opts, ro)
		return err
	})
	ro, calls := mergedResume(t, dir, fp, total, paths)
	par, err := AppSpecificRun(scheds, opts, ro)
	if err != nil {
		t.Fatal(err)
	}
	assertLoadedEverything(t, "appspecific", *calls)
	for j := range seq.Benchmark {
		if seq.Benchmark[j] != par.Benchmark[j] {
			t.Fatalf("Benchmark[%d]: sequential %v, sharded %v", j, seq.Benchmark[j], par.Benchmark[j])
		}
	}
	for i := range seq.Ratios {
		for j := range seq.Ratios[i] {
			if seq.Ratios[i][j] != par.Ratios[i][j] {
				t.Fatalf("cell (%d,%d): sequential %v, sharded %v", i, j, seq.Ratios[i][j], par.Ratios[i][j])
			}
		}
	}
}

// TestShardedRunReturnsPartialResult pins the documented contract of a
// sharded driver's in-memory return value: owned cells populated,
// foreign cells left at their zero/absent markers.
func TestShardedRunReturnsPartialResult(t *testing.T) {
	scheds := []scheduler.Scheduler{mustSched(t, "HEFT"), mustSched(t, "CPoP")}
	shard := runner.ShardSpec{Index: 0, Count: 2} // owns cell 0 of the 2 off-diagonal cells
	res, err := PairwisePISARun(scheds, PairwiseOptions{Anneal: smallAnneal(60)},
		runner.Options{Workers: 1, Shard: shard})
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
// through the direct RobustnessRun call (the `saga robustness` path),
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
	seq, err := RobustnessRun(inst, mustSched(t, "HEFT"), p.Sigma, p.N, p.Seed, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	paths := shardStores(t, dir, sw.Fingerprint, 3, sw.Run)
	ro, calls := mergedResume(t, dir, sw.Fingerprint, sw.Cells, paths)
	par, err := RobustnessRun(inst, mustSched(t, "HEFT"), p.Sigma, p.N, p.Seed, ro)
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
	seq, err := FamilyRun(datasets.Fig7Instance, scheds, p.N, p.Seed, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := FamilyRun(datasets.Fig7Instance, scheds, p.N, p.Seed, ro)
	if err != nil {
		t.Fatal(err)
	}
	assertLoadedEverything(t, "fig7 sweep", *calls)
	for _, name := range seq.Schedulers {
		for i := range seq.Makespans[name] {
			if seq.Makespans[name][i] != par.Makespans[name][i] {
				t.Fatalf("%s sample %d differs", name, i)
			}
		}
	}
}
