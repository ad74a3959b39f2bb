package graph

// Structural metrics of task graphs, used by the dataset description
// tooling and useful when characterizing the instances PISA discovers
// (e.g. "does the adversarial search drive graphs wide or deep?").

// Depth returns the number of tasks on the longest path (1 for a
// dependency-free graph, 0 for an empty one).
func (g *TaskGraph) Depth() int {
	order, err := g.TopoOrder()
	if err != nil {
		return 0
	}
	if len(order) == 0 {
		return 0
	}
	depth := make([]int, g.NumTasks())
	max := 0
	for _, t := range order {
		depth[t] = 1
		for _, d := range g.Pred[t] {
			if depth[d.To]+1 > depth[t] {
				depth[t] = depth[d.To] + 1
			}
		}
		if depth[t] > max {
			max = depth[t]
		}
	}
	return max
}

// LevelSizes returns how many tasks sit at each precedence level (level
// = longest hop-path from an entry task, starting at 0).
func (g *TaskGraph) LevelSizes() []int {
	order, err := g.TopoOrder()
	if err != nil || len(order) == 0 {
		return nil
	}
	level := make([]int, g.NumTasks())
	max := 0
	for _, t := range order {
		for _, d := range g.Pred[t] {
			if level[d.To]+1 > level[t] {
				level[t] = level[d.To] + 1
			}
		}
		if level[t] > max {
			max = level[t]
		}
	}
	sizes := make([]int, max+1)
	for _, l := range level {
		sizes[l]++
	}
	return sizes
}

// Width returns the size of the largest precedence level — a cheap lower
// bound on the graph's maximum degree of parallelism.
func (g *TaskGraph) Width() int {
	max := 0
	for _, s := range g.LevelSizes() {
		if s > max {
			max = s
		}
	}
	return max
}
