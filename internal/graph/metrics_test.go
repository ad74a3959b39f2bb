package graph

import "testing"

func TestDepthAndWidth(t *testing.T) {
	g := diamond() // a → {b, c} → d
	if d := g.Depth(); d != 3 {
		t.Fatalf("Depth = %d, want 3", d)
	}
	if w := g.Width(); w != 2 {
		t.Fatalf("Width = %d, want 2", w)
	}
	sizes := g.LevelSizes()
	want := []int{1, 2, 1}
	if len(sizes) != len(want) {
		t.Fatalf("LevelSizes = %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("LevelSizes = %v, want %v", sizes, want)
		}
	}
}

func TestMetricsDegenerateCases(t *testing.T) {
	empty := NewTaskGraph()
	if empty.Depth() != 0 || empty.Width() != 0 {
		t.Fatal("empty graph metrics should be 0")
	}
	if empty.LevelSizes() != nil {
		t.Fatal("empty graph level sizes should be nil")
	}
	single := NewTaskGraph()
	single.AddTask("a", 1)
	if single.Depth() != 1 || single.Width() != 1 {
		t.Fatal("single-task metrics wrong")
	}
	// Independent tasks: depth 1, width = n.
	ind := NewTaskGraph()
	for i := 0; i < 5; i++ {
		ind.AddTask("t", 1)
	}
	if ind.Depth() != 1 || ind.Width() != 5 {
		t.Fatalf("independent metrics: depth %d, width %d", ind.Depth(), ind.Width())
	}
	// Chain: depth n, width 1.
	chain := NewTaskGraph()
	prev := -1
	for i := 0; i < 4; i++ {
		tk := chain.AddTask("t", 1)
		if prev >= 0 {
			chain.MustAddDep(prev, tk, 0)
		}
		prev = tk
	}
	if chain.Depth() != 4 || chain.Width() != 1 {
		t.Fatalf("chain metrics: depth %d, width %d", chain.Depth(), chain.Width())
	}
}
