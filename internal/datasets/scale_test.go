package datasets

import (
	"testing"

	"saga/internal/graph"
	"saga/internal/rng"
)

func TestScaleFamilyShapes(t *testing.T) {
	for suffix, n := range ScaleSizes {
		for _, prefix := range []string{"scale_layered_", "scale_chains_"} {
			name := prefix + suffix
			g, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			inst := g(rng.New(3))
			if inst.Graph.NumTasks() != n {
				t.Errorf("%s: %d tasks, want %d", name, inst.Graph.NumTasks(), n)
			}
			deps := inst.Graph.NumDeps()
			switch prefix {
			case "scale_layered_":
				// Every task past the first layer has 2-4 predecessors.
				if deps < 2*(n-64) || deps > 4*n {
					t.Errorf("%s: %d deps, want ≈3·|V| (layered)", name, deps)
				}
			case "scale_chains_":
				if want := n - n/100; deps != want {
					t.Errorf("%s: %d deps, want %d (chains)", name, deps, want)
				}
			}
			if inst.Net.NumNodes() != scaleNetNodes {
				t.Errorf("%s: %d nodes, want %d", name, inst.Net.NumNodes(), scaleNetNodes)
			}
		}
	}
}

func TestScaleNetworkStaysSparse(t *testing.T) {
	// The clustered network's whole link structure must land in O(|V|)
	// table entries: clusters of scaleClusterSize contribute
	// C(size, 2)·clusters exception pairs, stored symmetrically.
	r := rng.New(11)
	for i := 0; i < 5; i++ {
		net := scaleNetwork(r.Split())
		g := graph.NewTaskGraph()
		a := g.AddTask("a", 1)
		b := g.AddTask("b", 1)
		g.MustAddDep(a, b, 1)
		var tb graph.Tables
		tb.Build(graph.NewInstance(g, net))
		pairs := scaleNetNodes / scaleClusterSize * scaleClusterSize * (scaleClusterSize - 1) / 2
		if got := tb.LinkExceptions(); got > 2*pairs {
			t.Fatalf("scaleNetwork stores %d link exceptions, want ≤ %d (2·intra-cluster pairs)", got, 2*pairs)
		}
	}
}

func TestScaleFamilyDeterministic(t *testing.T) {
	a, err := Dataset("scale_layered_1k", 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Dataset("scale_layered_1k", 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Graph.NumDeps() != b[i].Graph.NumDeps() ||
			a[i].Graph.Tasks[500].Cost != b[i].Graph.Tasks[500].Cost ||
			a[i].Net.Links[0][31] != b[i].Net.Links[0][31] {
			t.Fatal("same seed produced different scale instances")
		}
	}
}

func TestWfcFamilyRegistered(t *testing.T) {
	for _, name := range WorkflowNames {
		g, err := New("wfc_" + name)
		if err != nil {
			t.Fatal(err)
		}
		inst := g(rng.New(5))
		if err := inst.Validate(); err != nil {
			t.Fatalf("wfc_%s: %v", name, err)
		}
		// The interchange round trip carries the machine list into a
		// finite network — unlike the Chameleon families' infinite links.
		if inst.Net == nil || inst.Net.NumNodes() < 4 {
			t.Fatalf("wfc_%s: network %+v", name, inst.Net)
		}
	}
}
