package datasets

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"saga/internal/graph"
	"saga/internal/rng"
)

func TestAllGeneratorsProduceValidInstances(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(17)
			for i := 0; i < 5; i++ {
				inst := g(r.Split())
				if err := inst.Validate(); err != nil {
					t.Fatalf("instance %d invalid: %v", i, err)
				}
				if inst.Graph.NumTasks() == 0 {
					t.Fatalf("instance %d has no tasks", i)
				}
			}
		})
	}
}

func TestTableIIRosterComplete(t *testing.T) {
	if len(TableII) != 16 {
		t.Fatalf("Table II lists %d datasets, want 16", len(TableII))
	}
	for _, name := range TableII {
		if _, err := New(name); err != nil {
			t.Errorf("Table II dataset %s not registered: %v", name, err)
		}
	}
}

func TestDatasetReproducible(t *testing.T) {
	a, err := Dataset("chains", 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Dataset("chains", 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Graph.NumTasks() != b[i].Graph.NumTasks() {
			t.Fatal("same seed produced different instances")
		}
		for tk := range a[i].Graph.Tasks {
			if a[i].Graph.Tasks[tk].Cost != b[i].Graph.Tasks[tk].Cost {
				t.Fatal("same seed produced different task costs")
			}
		}
	}
	if _, err := Dataset("no-such", 1, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	for _, n := range []int{0, -2} {
		if _, err := Dataset("chains", n, 1); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("n = %d", n)) {
			t.Fatalf("Dataset with n = %d: %v", n, err)
		}
	}
}

func TestDatasetPrefixStable(t *testing.T) {
	// Instance i is identical regardless of how many instances follow it.
	a, _ := Dataset("in_trees", 2, 7)
	b, _ := Dataset("in_trees", 5, 7)
	for i := range a {
		if a[i].Graph.NumTasks() != b[i].Graph.NumTasks() ||
			a[i].Graph.Tasks[0].Cost != b[i].Graph.Tasks[0].Cost {
			t.Fatal("dataset prefix not stable across batch sizes")
		}
	}
}

func TestRandomNetworkShape(t *testing.T) {
	r := rng.New(5)
	for i := 0; i < 50; i++ {
		net := randomNetwork(r.Split())
		if n := net.NumNodes(); n < 3 || n > 5 {
			t.Fatalf("network size %d outside [3,5]", n)
		}
		for _, s := range net.Speeds {
			if s < minNetWeight || s > 2 {
				t.Fatalf("speed %v outside [%v, 2]", s, minNetWeight)
			}
		}
		if err := net.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTreeShapes(t *testing.T) {
	r := rng.New(9)
	for i := 0; i < 30; i++ {
		in := randTree(r.Split(), true)
		out := randTree(r.Split(), false)
		// In-trees have exactly one sink (the root); out-trees one source.
		if sinks := in.Sinks(); len(sinks) != 1 {
			t.Fatalf("in-tree has %d sinks", len(sinks))
		}
		if srcs := out.Sources(); len(srcs) != 1 {
			t.Fatalf("out-tree has %d sources", len(srcs))
		}
		// Tree: |D| = |T| - 1.
		if in.NumDeps() != in.NumTasks()-1 {
			t.Fatalf("in-tree with %d tasks has %d deps", in.NumTasks(), in.NumDeps())
		}
		for _, tk := range in.Tasks {
			if tk.Cost < 0 || tk.Cost > 2 {
				t.Fatalf("tree task cost %v outside [0,2]", tk.Cost)
			}
		}
	}
}

func TestParallelChainsShape(t *testing.T) {
	r := rng.New(11)
	for i := 0; i < 30; i++ {
		g := parallelChains(r.Split())
		// Chains have equal numbers of sources and sinks, and every task
		// has at most one predecessor and successor.
		if len(g.Sources()) != len(g.Sinks()) {
			t.Fatal("chain sources != sinks")
		}
		nc := len(g.Sources())
		if nc < 2 || nc > 5 {
			t.Fatalf("%d chains outside [2,5]", nc)
		}
		for tk := range g.Tasks {
			if len(g.Succ[tk]) > 1 || len(g.Pred[tk]) > 1 {
				t.Fatal("chain task has branching")
			}
		}
	}
}

func TestChameleonNetworkInfiniteLinks(t *testing.T) {
	r := rng.New(13)
	net := chameleonNetwork(r)
	for u := 0; u < net.NumNodes(); u++ {
		for v := 0; v < net.NumNodes(); v++ {
			if u != v && !math.IsInf(net.Links[u][v], 1) {
				t.Fatalf("Chameleon link (%d,%d) = %v, want +Inf", u, v, net.Links[u][v])
			}
		}
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeFogCloudNetwork(t *testing.T) {
	r := rng.New(15)
	for i := 0; i < 10; i++ {
		net := EdgeFogCloudNetwork(r.Split())
		var nEdge, nFog, nCloud int
		for _, s := range net.Speeds {
			switch s {
			case 1:
				nEdge++
			case 6:
				nFog++
			case 50:
				nCloud++
			default:
				t.Fatalf("unexpected speed %v", s)
			}
		}
		if nEdge < 75 || nEdge > 125 {
			t.Fatalf("edge count %d outside [75,125]", nEdge)
		}
		if nFog < 3 || nFog > 7 {
			t.Fatalf("fog count %d outside [3,7]", nFog)
		}
		if nCloud < 1 || nCloud > 10 {
			t.Fatalf("cloud count %d outside [1,10]", nCloud)
		}
		if err := net.Validate(); err != nil {
			t.Fatal(err)
		}
		// Spot-check tier link strengths: edge-fog 60, fog-cloud 100,
		// cloud-cloud infinite.
		firstFog := nEdge
		firstCloud := nEdge + nFog
		if net.Links[0][firstFog] != 60 {
			t.Fatalf("edge-fog link = %v, want 60", net.Links[0][firstFog])
		}
		if net.Links[firstFog][firstCloud] != 100 {
			t.Fatalf("fog-cloud link = %v, want 100", net.Links[firstFog][firstCloud])
		}
		if nCloud >= 2 && !math.IsInf(net.Links[firstCloud][firstCloud+1], 1) {
			t.Fatal("cloud-cloud link not infinite")
		}
		if nFog >= 2 && net.Links[firstFog][firstFog+1] != 100 {
			t.Fatalf("fog-fog link = %v, want 100", net.Links[firstFog][firstFog+1])
		}
		if net.Links[0][1] != 60 {
			t.Fatalf("edge-edge link = %v, want 60", net.Links[0][1])
		}
		if net.Links[0][firstCloud] != 60 {
			t.Fatalf("edge-cloud link = %v, want 60", net.Links[0][firstCloud])
		}
	}
}

func TestIoTNodeWeightRanges(t *testing.T) {
	r := rng.New(21)
	for _, name := range IoTNames {
		g, err := IoTRecipe(name, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		for _, tk := range g.Tasks {
			if tk.Cost < 10 || tk.Cost > 60 {
				t.Fatalf("%s task cost %v outside [10,60]", name, tk.Cost)
			}
		}
		// Every dependency size derives from the input size scaled by
		// positive ratios; it must be positive and bounded by input x
		// cumulative growth.
		for _, succ := range g.Succ {
			for _, d := range succ {
				if d.Cost <= 0 {
					t.Fatalf("%s dependency cost %v not positive", name, d.Cost)
				}
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := IoTRecipe("bogus", r); err == nil {
		t.Fatal("unknown IoT recipe accepted")
	}
}

func TestBlastStructure(t *testing.T) {
	r := rng.New(23)
	g := blastGraph(r)
	srcs := g.Sources()
	if len(srcs) != 1 || !strings.HasPrefix(g.Tasks[srcs[0]].Name, "split") {
		t.Fatalf("blast sources = %v", srcs)
	}
	sinks := g.Sinks()
	if len(sinks) != 2 {
		t.Fatalf("blast has %d sinks, want 2 (Fig 9b)", len(sinks))
	}
	// Every middle task: one pred (split), two succs (both gathers).
	for tk := range g.Tasks {
		if strings.HasPrefix(g.Tasks[tk].Name, "blastall") {
			if len(g.Pred[tk]) != 1 || len(g.Succ[tk]) != 2 {
				t.Fatalf("blastall task has %d preds, %d succs", len(g.Pred[tk]), len(g.Succ[tk]))
			}
		}
	}
}

func TestSrasearchStructure(t *testing.T) {
	r := rng.New(25)
	g := srasearchGraph(r)
	// Fig 9a: 4n+4 tasks, single source t0, single sink t_{4n+3}.
	n := (g.NumTasks() - 4) / 4
	if g.NumTasks() != 4*n+4 {
		t.Fatalf("srasearch task count %d not of form 4n+4", g.NumTasks())
	}
	if srcs := g.Sources(); len(srcs) != 1 || g.Tasks[srcs[0]].Name != "t0" {
		t.Fatalf("srasearch sources = %v", srcs)
	}
	if sinks := g.Sinks(); len(sinks) != 1 {
		t.Fatalf("srasearch has %d sinks, want 1", len(sinks))
	}
}

func TestSeismologyStructure(t *testing.T) {
	r := rng.New(27)
	g := seismologyGraph(r)
	if sinks := g.Sinks(); len(sinks) != 1 {
		t.Fatalf("seismology sinks = %d, want 1", len(sinks))
	}
	if srcs := g.Sources(); len(srcs) != g.NumTasks()-1 {
		t.Fatalf("seismology sources = %d, want %d (all deconvolutions)", len(g.Sources()), g.NumTasks()-1)
	}
}

func TestMontageStructure(t *testing.T) {
	r := rng.New(29)
	g := montageGraph(r)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The tail chain ends in a single sink (mJPEG).
	sinks := g.Sinks()
	if len(sinks) != 1 || g.Tasks[sinks[0]].Name != "mJPEG" {
		t.Fatalf("montage sinks = %v", sinks)
	}
	// mDiffFit tasks each have exactly two projection predecessors.
	for tk := range g.Tasks {
		if strings.HasPrefix(g.Tasks[tk].Name, "mDiffFit") && len(g.Pred[tk]) != 2 {
			t.Fatalf("mDiffFit with %d preds", len(g.Pred[tk]))
		}
	}
}

func TestWorkflowRecipeUnknown(t *testing.T) {
	if _, err := WorkflowRecipe("nope", rng.New(1)); err == nil {
		t.Fatal("unknown workflow accepted")
	}
}

func TestWorkflowNamesAllBuild(t *testing.T) {
	r := rng.New(31)
	for _, name := range WorkflowNames {
		g, err := WorkflowRecipe(name, r.Split())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumTasks() < 5 {
			t.Fatalf("%s produced only %d tasks", name, g.NumTasks())
		}
	}
}

func TestSetHomogeneousCCR(t *testing.T) {
	r := rng.New(33)
	for _, target := range []float64{0.2, 0.5, 1, 2, 5} {
		g, err := WorkflowRecipe("blast", r.Split())
		if err != nil {
			t.Fatal(err)
		}
		net := graph.NewNetwork(4)
		rr := r.Split()
		for v := range net.Speeds {
			net.Speeds[v] = rr.ClippedGaussian(1, 1.0/3, 0.2, 2)
		}
		inst := graph.NewInstance(g, net)
		SetHomogeneousCCR(inst, target)
		// The paper's CCR definition (avg data / strength over avg exec)
		// uses means; our Instance.CCR averages per-edge comm times over
		// pairs, which coincides for homogeneous links up to the
		// data-size distribution. Verify via the definitional form.
		strength := inst.Net.Links[0][1]
		meanExec := 0.0
		for tk := range inst.Graph.Tasks {
			meanExec += inst.AvgExecTime(tk)
		}
		meanExec /= float64(inst.Graph.NumTasks())
		got := (inst.Graph.MeanDepCost() / strength) / meanExec
		if math.Abs(got-target) > 1e-9 {
			t.Fatalf("CCR = %v, want %v", got, target)
		}
	}
}

func TestSetHomogeneousCCRNoDeps(t *testing.T) {
	g := graph.NewTaskGraph()
	g.AddTask("a", 1)
	inst := graph.NewInstance(g, graph.NewNetwork(2))
	SetHomogeneousCCR(inst, 2) // must not panic or change anything
	if inst.Net.Links[0][1] != 1 {
		t.Fatal("CCR setter modified a dependency-free instance")
	}
}

func TestInitialPISAInstanceShape(t *testing.T) {
	r := rng.New(35)
	for i := 0; i < 50; i++ {
		inst := InitialPISAInstance(r.Split())
		if err := inst.Validate(); err != nil {
			t.Fatal(err)
		}
		nt := inst.Graph.NumTasks()
		if nt < 3 || nt > 5 {
			t.Fatalf("chain length %d outside [3,5]", nt)
		}
		if inst.Graph.NumDeps() != nt-1 {
			t.Fatalf("chain with %d tasks has %d deps", nt, inst.Graph.NumDeps())
		}
		nn := inst.Net.NumNodes()
		if nn < 3 || nn > 5 {
			t.Fatalf("network size %d outside [3,5]", nn)
		}
	}
}

func TestFig7InstanceShape(t *testing.T) {
	r := rng.New(37)
	inst := Fig7Instance(r)
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.Graph.NumTasks() != 4 || inst.Graph.NumDeps() != 4 {
		t.Fatal("Fig 7 family is a 4-task diamond")
	}
	// A and D cost exactly 1; the C→D... rather A→C dependency is heavy.
	if inst.Graph.Tasks[0].Cost != 1 || inst.Graph.Tasks[3].Cost != 1 {
		t.Fatal("Fig 7 endpoints must cost 1")
	}
	for _, s := range inst.Net.Speeds {
		if s != 1 {
			t.Fatal("Fig 7 network must be homogeneous")
		}
	}
}

func TestFig8InstanceShape(t *testing.T) {
	r := rng.New(39)
	inst := Fig8Instance(r)
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.Graph.NumTasks() != 11 {
		t.Fatalf("Fig 8 family has %d tasks, want 11 (A..K)", inst.Graph.NumTasks())
	}
	if inst.Net.Speeds[0] != 3 {
		t.Fatal("Fig 8 fastest node must have speed 3")
	}
}

func TestFigureInstancesFrozenRatios(t *testing.T) {
	// Structural freeze of the worked examples; scheduler-level ratio
	// assertions live in the experiments tests.
	for _, c := range []struct {
		name  string
		inst  *graph.Instance
		tasks int
	}{
		{"fig1", Fig1Instance(), 4},
		{"fig3", Fig3Instance(false), 5},
		{"fig5", Fig5Instance(), 3},
		{"fig6", Fig6Instance(), 3},
	} {
		if err := c.inst.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if c.inst.Graph.NumTasks() != c.tasks {
			t.Errorf("%s: %d tasks, want %d", c.name, c.inst.Graph.NumTasks(), c.tasks)
		}
	}
}

func TestDescribe(t *testing.T) {
	instances, err := Dataset("chains", 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := Describe("chains", instances)
	if d.Instances != 10 || d.Name != "chains" {
		t.Fatalf("description header: %+v", d)
	}
	// Parallel chains: 2-5 chains of 2-5 tasks each → 4-25 tasks.
	if d.Tasks.Min < 4 || d.Tasks.Max > 25 {
		t.Fatalf("task summary out of family range: %+v", d.Tasks)
	}
	if d.Nodes.Min < 3 || d.Nodes.Max > 5 {
		t.Fatalf("node summary out of range: %+v", d.Nodes)
	}
	out := d.String()
	for _, want := range []string{"chains: 10 instances", "tasks", "CCR"} {
		if !strings.Contains(out, want) {
			t.Fatalf("description missing %q:\n%s", want, out)
		}
	}
}

func TestDescribeDepthMatchesStructure(t *testing.T) {
	// Seismology is a two-level fork-join: depth exactly 2 everywhere.
	instances, err := Dataset("seismology", 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	d := Describe("seismology", instances)
	if d.Depth.Min != 2 || d.Depth.Max != 2 {
		t.Fatalf("seismology depth summary: %+v", d.Depth)
	}
}
