package graph

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func diamond() *TaskGraph {
	g := NewTaskGraph()
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 2)
	c := g.AddTask("c", 3)
	d := g.AddTask("d", 4)
	g.MustAddDep(a, b, 1)
	g.MustAddDep(a, c, 2)
	g.MustAddDep(b, d, 3)
	g.MustAddDep(c, d, 4)
	return g
}

func TestAddTaskAndCounts(t *testing.T) {
	g := diamond()
	if g.NumTasks() != 4 {
		t.Fatalf("NumTasks = %d, want 4", g.NumTasks())
	}
	if g.NumDeps() != 4 {
		t.Fatalf("NumDeps = %d, want 4", g.NumDeps())
	}
}

func TestAddDepRejectsSelfLoop(t *testing.T) {
	g := NewTaskGraph()
	a := g.AddTask("a", 1)
	if err := g.AddDep(a, a, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestAddDepRejectsDuplicate(t *testing.T) {
	g := diamond()
	if err := g.AddDep(0, 1, 5); err == nil {
		t.Fatal("duplicate dependency accepted")
	}
}

func TestAddDepRejectsCycle(t *testing.T) {
	g := diamond()
	if err := g.AddDep(3, 0, 1); err == nil {
		t.Fatal("cycle-creating dependency accepted")
	}
	// The rejected edge must not corrupt the graph.
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAddDepForwardBuiltSkipsDFS: generators and decoders add each edge
// into a task that has no successors yet, so AddDep's cycle check answers
// before its DFS allocates the |V|-sized visited set. With adjacency
// capacity reserved up front, nothing else allocates either.
func TestAddDepForwardBuiltSkipsDFS(t *testing.T) {
	const n = 10000
	g := NewTaskGraph()
	for i := 0; i < n; i++ {
		g.AddTask("t", 1)
	}
	for i := range g.Succ {
		g.Succ[i] = make([]Dep, 0, 2)
		g.Pred[i] = make([]Dep, 0, 2)
	}
	next := 1
	allocs := testing.AllocsPerRun(n-2, func() {
		g.MustAddDep(next-1, next, 1)
		if next >= 2 {
			g.MustAddDep(next-2, next, 1)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("AddDep on a forward-built graph: %v allocs per task, want 0", allocs)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := g.AddDep(n-1, 0, 1); err == nil {
		t.Fatal("cycle through the whole forward-built graph accepted")
	}
}

// TestAddDepBackEdgeTakesDFS: an edge whose target already has successors
// and whose source already has predecessors gets the full search, both
// when it is acyclic and when it closes a cycle.
func TestAddDepBackEdgeTakesDFS(t *testing.T) {
	g := diamond()
	if g.Reaches(2, 1) {
		t.Fatal("Reaches(2,1) on the diamond")
	}
	if testing.AllocsPerRun(10, func() { g.Reaches(2, 1) }) == 0 {
		t.Fatal("Reaches(2,1) answered without the DFS")
	}
	if err := g.AddDep(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddDep(2, 1, 1); err == nil {
		t.Fatal("cycle-creating back edge accepted")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddDepRejectsOutOfRange(t *testing.T) {
	g := diamond()
	if err := g.AddDep(0, 99, 1); err == nil {
		t.Fatal("out-of-range dependency accepted")
	}
	if err := g.AddDep(-1, 0, 1); err == nil {
		t.Fatal("negative index accepted")
	}
}

func TestRemoveDep(t *testing.T) {
	g := diamond()
	if !g.RemoveDep(0, 1) {
		t.Fatal("RemoveDep(0,1) = false, edge exists")
	}
	if g.HasDep(0, 1) {
		t.Fatal("edge (0,1) still present after removal")
	}
	if g.RemoveDep(0, 1) {
		t.Fatal("RemoveDep on missing edge reported success")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumDeps() != 3 {
		t.Fatalf("NumDeps = %d after removal, want 3", g.NumDeps())
	}
}

func TestSetDepCost(t *testing.T) {
	g := diamond()
	if !g.SetDepCost(0, 1, 9.5) {
		t.Fatal("SetDepCost on existing edge failed")
	}
	if c, _ := g.DepCost(0, 1); c != 9.5 {
		t.Fatalf("DepCost = %v, want 9.5", c)
	}
	if g.SetDepCost(1, 0, 1) {
		t.Fatal("SetDepCost on missing edge reported success")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err) // both adjacency directions must be updated
	}
}

func TestReaches(t *testing.T) {
	g := diamond()
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 3, true}, {0, 0, true}, {1, 2, false}, {3, 0, false}, {1, 3, true},
	}
	for _, c := range cases {
		if got := g.Reaches(c.u, c.v); got != c.want {
			t.Errorf("Reaches(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestSourcesSinks(t *testing.T) {
	g := diamond()
	if s := g.Sources(); len(s) != 1 || s[0] != 0 {
		t.Fatalf("Sources = %v, want [0]", s)
	}
	if s := g.Sinks(); len(s) != 1 || s[0] != 3 {
		t.Fatalf("Sinks = %v, want [3]", s)
	}
}

func TestTopoOrderValid(t *testing.T) {
	g := diamond()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, g.NumTasks())
	for i, task := range order {
		pos[task] = i
	}
	for _, d := range g.Deps() {
		if pos[d[0]] >= pos[d[1]] {
			t.Fatalf("topological violation: %d before %d", d[1], d[0])
		}
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	g := diamond()
	a, _ := g.TopoOrder()
	b, _ := g.TopoOrder()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TopoOrder not deterministic")
		}
	}
}

func TestValidateCatchesAdjacencyMismatch(t *testing.T) {
	g := diamond()
	// Corrupt one direction directly.
	g.Succ[0][0].Cost = 42
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed an adjacency cost mismatch")
	}
}

func TestValidateCatchesNegativeCost(t *testing.T) {
	g := diamond()
	g.Tasks[0].Cost = -1
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed a negative task cost")
	}
}

// TestValidateCatchesUncheckedFaults adds, with AddDepUnchecked as the
// decoders do, each fault AddDep would have refused, and checks that
// Validate refuses it — a cycle with the count TopoOrder reports.
func TestValidateCatchesUncheckedFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		u, v int
		want string
	}{
		{"self-loop", 1, 1, "graph: self-dependency on task 1"},
		{"duplicate", 0, 1, "graph: duplicate dependency (0, 1)"},
		{"cycle", 3, 0, "graph: cycle detected (0 of 4 tasks ordered)"},
	} {
		g := diamond()
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		g.AddDepUnchecked(tc.u, tc.v, 1)
		if err := g.Validate(); err == nil || err.Error() != tc.want {
			t.Fatalf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
		if tc.name == "cycle" {
			if _, err := g.TopoOrder(); err == nil || err.Error() != tc.want {
				t.Fatalf("TopoOrder = %v, want %q", err, tc.want)
			}
		}
	}
}

// TestReserveDepsRows fills reserved rows and checks that they equal
// AddDep's, that a row with no room stays nil, and that growing one row
// past its room leaves the next row as it was.
func TestReserveDepsRows(t *testing.T) {
	want := diamond()
	want.AddTask("lone", 1)
	g := &TaskGraph{Tasks: append([]Task(nil), want.Tasks...)}
	g.ReserveDeps([]int{2, 1, 1, 0, 0}, []int{0, 1, 1, 2, 0})
	for u, succ := range want.Succ {
		for _, d := range succ {
			g.AddDepUnchecked(u, d.To, d.Cost)
		}
	}
	if !reflect.DeepEqual(g, want) {
		t.Fatalf("reserved graph %+v, want %+v", g, want)
	}
	if g.Succ[3] != nil || g.Pred[0] != nil || g.Succ[4] != nil || g.Pred[4] != nil {
		t.Fatal("a row without room is not nil")
	}
	g.AddDepUnchecked(0, 4, 9)
	if len(g.Succ[1]) != 1 || g.Succ[1][0] != (Dep{To: 3, Cost: 3}) || len(g.Pred[1]) != 1 || g.Pred[1][0] != (Dep{To: 0, Cost: 1}) {
		t.Fatalf("growing row 0 changed its neighbours: %+v, %+v", g.Succ[1], g.Pred[1])
	}
}

func TestCloneIndependence(t *testing.T) {
	g := diamond()
	c := g.Clone()
	c.Tasks[0].Cost = 99
	c.SetDepCost(0, 1, 77)
	c.RemoveDep(2, 3)
	if g.Tasks[0].Cost != 1 {
		t.Fatal("clone mutation leaked into original tasks")
	}
	if cost, _ := g.DepCost(0, 1); cost != 1 {
		t.Fatal("clone mutation leaked into original deps")
	}
	if !g.HasDep(2, 3) {
		t.Fatal("clone removal leaked into original")
	}
}

func TestMeanCosts(t *testing.T) {
	g := diamond()
	if m := g.MeanDepCost(); !ApproxEq(m, 2.5) {
		t.Fatalf("MeanDepCost = %v, want 2.5", m)
	}
	empty := NewTaskGraph()
	if empty.MeanDepCost() != 0 {
		t.Fatal("mean dep cost of an empty graph should be 0")
	}
}

func TestNetworkBasics(t *testing.T) {
	n := NewNetwork(3)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	n.Speeds[2] = 5
	if n.FastestNode() != 2 {
		t.Fatalf("FastestNode = %d, want 2", n.FastestNode())
	}
	n.SetLink(0, 1, 2.5)
	if n.Links[1][0] != 2.5 {
		t.Fatal("SetLink not symmetric")
	}
	n.SetLink(1, 1, 3) // ignored
	if !math.IsInf(n.Links[1][1], 1) {
		t.Fatal("self-link changed")
	}
}

func TestNetworkValidateErrors(t *testing.T) {
	n := NewNetwork(2)
	n.Speeds[0] = 0
	if err := n.Validate(); err == nil {
		t.Fatal("zero speed accepted")
	}
	n = NewNetwork(2)
	n.Links[0][1] = 1
	n.Links[1][0] = 2
	if err := n.Validate(); err == nil {
		t.Fatal("asymmetric link accepted")
	}
	n = NewNetwork(2)
	n.Links[0][0] = 1
	if err := n.Validate(); err == nil {
		t.Fatal("finite self-link accepted")
	}
	if err := (&Network{}).Validate(); err == nil {
		t.Fatal("empty network accepted")
	}
}

func instance() *Instance {
	g := diamond()
	n := NewNetwork(2)
	n.Speeds[0], n.Speeds[1] = 1, 2
	n.SetLink(0, 1, 0.5)
	return NewInstance(g, n)
}

func TestExecTime(t *testing.T) {
	in := instance()
	if e := in.ExecTime(2, 1); !ApproxEq(e, 1.5) {
		t.Fatalf("ExecTime(c, fast) = %v, want 1.5", e)
	}
	if e := in.ExecTime(2, 0); !ApproxEq(e, 3) {
		t.Fatalf("ExecTime(c, slow) = %v, want 3", e)
	}
}

func TestCommTime(t *testing.T) {
	in := instance()
	if c := in.CommTime(0, 1, 0, 1); !ApproxEq(c, 2) { // cost 1 / strength 0.5
		t.Fatalf("CommTime across = %v, want 2", c)
	}
	if c := in.CommTime(0, 1, 1, 1); c != 0 {
		t.Fatalf("CommTime same node = %v, want 0", c)
	}
	if c := in.CommTime(1, 2, 0, 1); c != 0 {
		t.Fatalf("CommTime missing edge = %v, want 0", c)
	}
}

func TestAvgExecTime(t *testing.T) {
	in := instance()
	// Task c cost 3: (3/1 + 3/2)/2 = 2.25.
	if a := in.AvgExecTime(2); !ApproxEq(a, 2.25) {
		t.Fatalf("AvgExecTime = %v, want 2.25", a)
	}
}

func TestAvgCommTime(t *testing.T) {
	in := instance()
	// Edge (0,1) cost 1, single pair with strength 0.5 → 2.
	if a := in.AvgCommTime(0, 1); !ApproxEq(a, 2) {
		t.Fatalf("AvgCommTime = %v, want 2", a)
	}
	if a := in.AvgCommTime(1, 0); a != 0 {
		t.Fatalf("AvgCommTime of missing edge = %v, want 0", a)
	}
}

func TestAvgCommTimeInfiniteLinksContributeZero(t *testing.T) {
	g := NewTaskGraph()
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	g.MustAddDep(a, b, 10)
	n := NewNetwork(3)
	n.SetLink(0, 1, math.Inf(1))
	n.SetLink(0, 2, math.Inf(1))
	n.SetLink(1, 2, 5)
	in := NewInstance(g, n)
	// Pairs: (0,1) inf → 0, (0,2) inf → 0, (1,2) → 2. Average = 2/3.
	if got := in.AvgCommTime(0, 1); !ApproxEq(got, 2.0/3) {
		t.Fatalf("AvgCommTime = %v, want 2/3", got)
	}
}

func TestCCR(t *testing.T) {
	g := NewTaskGraph()
	a := g.AddTask("a", 2)
	b := g.AddTask("b", 2)
	g.MustAddDep(a, b, 4)
	n := NewNetwork(2) // speeds 1, link 1
	in := NewInstance(g, n)
	// Avg exec = 2, avg comm = 4 → CCR 2.
	if c := in.CCR(); !ApproxEq(c, 2) {
		t.Fatalf("CCR = %v, want 2", c)
	}
}

func TestCCRNoDeps(t *testing.T) {
	g := NewTaskGraph()
	g.AddTask("a", 1)
	in := NewInstance(g, NewNetwork(2))
	if c := in.CCR(); c != 0 {
		t.Fatalf("CCR without deps = %v, want 0", c)
	}
}

func TestInstanceCloneAndValidate(t *testing.T) {
	in := instance()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	c := in.Clone()
	c.Net.Speeds[0] = 42
	c.Graph.Tasks[0].Cost = 42
	if in.Net.Speeds[0] == 42 || in.Graph.Tasks[0].Cost == 42 {
		t.Fatal("instance clone shares state")
	}
	bad := &Instance{}
	if err := bad.Validate(); err == nil {
		t.Fatal("nil-parts instance accepted")
	}
}

// TestTopoOrderQuick generates random DAGs (edges only from lower to
// higher index, then relabeled by a permutation) and checks TopoOrder
// always yields a valid order.
func TestTopoOrderQuick(t *testing.T) {
	check := func(seed int64) bool {
		// Simple deterministic LCG so the property is self-contained.
		s := uint64(seed)
		next := func(n int) int {
			s = s*6364136223846793005 + 1442695040888963407
			return int((s >> 33) % uint64(n))
		}
		n := next(12) + 2
		g := NewTaskGraph()
		for i := 0; i < n; i++ {
			g.AddTask("t", float64(next(10)+1))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if next(3) == 0 {
					g.MustAddDep(i, j, float64(next(5)))
				}
			}
		}
		order, err := g.TopoOrder()
		if err != nil || len(order) != n {
			return false
		}
		pos := make([]int, n)
		for i, task := range order {
			pos[task] = i
		}
		for _, d := range g.Deps() {
			if pos[d[0]] >= pos[d[1]] {
				return false
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
