package graph

import (
	"fmt"
	"math"
)

// Network is a complete undirected compute network: Speeds[v] is the
// compute speed s(v) of node v and Links[u][v] is the communication
// strength s(u, v). Self-links are infinitely strong (a node sends data
// to itself for free), matching the paper's convention.
type Network struct {
	Speeds []float64
	Links  [][]float64
}

// NewNetwork returns a network of n nodes with all speeds 1 and all link
// strengths 1 (self-links infinite).
func NewNetwork(n int) *Network {
	net := &Network{
		Speeds: make([]float64, n),
		Links:  make([][]float64, n),
	}
	for v := 0; v < n; v++ {
		net.Speeds[v] = 1
		net.Links[v] = make([]float64, n)
		for u := 0; u < n; u++ {
			if u == v {
				net.Links[v][u] = math.Inf(1)
			} else {
				net.Links[v][u] = 1
			}
		}
	}
	return net
}

// NumNodes returns |V|.
func (n *Network) NumNodes() int { return len(n.Speeds) }

// SetLink sets the strength of the (u, v) link symmetrically. Self-links
// are ignored (they stay infinite).
func (n *Network) SetLink(u, v int, strength float64) {
	if u == v {
		return
	}
	n.Links[u][v] = strength
	n.Links[v][u] = strength
}

// FastestNode returns the index of the node with the highest compute
// speed (lowest index on ties).
func (n *Network) FastestNode() int {
	best := 0
	for v := 1; v < len(n.Speeds); v++ {
		if n.Speeds[v] > n.Speeds[best] {
			best = v
		}
	}
	return best
}

// MeanSpeed returns the average node speed.
func (n *Network) MeanSpeed() float64 {
	if len(n.Speeds) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range n.Speeds {
		sum += s
	}
	return sum / float64(len(n.Speeds))
}

// MeanLinkStrength returns the average strength over distinct node pairs
// (self-links excluded). Infinite links are excluded from the average; if
// every link is infinite the result is +Inf. For a single-node network it
// returns +Inf (all communication is local).
func (n *Network) MeanLinkStrength() float64 {
	count, sum := 0, 0.0
	anyPair := false
	for u := 0; u < len(n.Speeds); u++ {
		for v := u + 1; v < len(n.Speeds); v++ {
			anyPair = true
			if math.IsInf(n.Links[u][v], 1) {
				continue
			}
			sum += n.Links[u][v]
			count++
		}
	}
	if !anyPair || count == 0 {
		return math.Inf(1)
	}
	return sum / float64(count)
}

// Validate checks that speeds are positive and finite, links are positive
// (possibly infinite) and symmetric, and self-links are infinite.
func (n *Network) Validate() error {
	if len(n.Speeds) == 0 {
		return fmt.Errorf("graph: empty network")
	}
	if len(n.Links) != len(n.Speeds) {
		return fmt.Errorf("graph: link matrix has %d rows for %d nodes", len(n.Links), len(n.Speeds))
	}
	for v, s := range n.Speeds {
		if !(s > 0) || math.IsInf(s, 0) || math.IsNaN(s) {
			return fmt.Errorf("graph: node %d has invalid speed %v", v, s)
		}
	}
	for u := range n.Links {
		if len(n.Links[u]) != len(n.Speeds) {
			return fmt.Errorf("graph: link row %d has %d entries for %d nodes", u, len(n.Links[u]), len(n.Speeds))
		}
		for v, w := range n.Links[u] {
			if u == v {
				if !math.IsInf(w, 1) {
					return fmt.Errorf("graph: self-link of node %d must be +Inf, got %v", u, w)
				}
				continue
			}
			if !(w > 0) || math.IsNaN(w) {
				return fmt.Errorf("graph: link (%d, %d) has invalid strength %v", u, v, w)
			}
			if n.Links[v][u] != w {
				return fmt.Errorf("graph: link (%d, %d) asymmetric: %v vs %v", u, v, w, n.Links[v][u])
			}
		}
	}
	return nil
}

// CopyFrom makes n a deep copy of src, reusing n's slice storage where
// capacity allows (the hot-loop counterpart of Clone).
func (n *Network) CopyFrom(src *Network) {
	n.Speeds = append(n.Speeds[:0], src.Speeds...)
	if cap(n.Links) < len(src.Links) {
		grown := make([][]float64, len(src.Links))
		copy(grown, n.Links[:cap(n.Links)])
		n.Links = grown
	} else {
		n.Links = n.Links[:len(src.Links)]
	}
	for i, row := range src.Links {
		n.Links[i] = append(n.Links[i][:0], row...)
	}
}

// Clone returns a deep copy.
func (n *Network) Clone() *Network {
	c := &Network{
		Speeds: append([]float64(nil), n.Speeds...),
		Links:  make([][]float64, len(n.Links)),
	}
	for i, row := range n.Links {
		c.Links[i] = append([]float64(nil), row...)
	}
	return c
}

// Instance is a problem instance: a network/task-graph pair (N, G).
type Instance struct {
	Graph *TaskGraph
	Net   *Network
}

// NewInstance bundles a task graph and network.
func NewInstance(g *TaskGraph, n *Network) *Instance {
	return &Instance{Graph: g, Net: n}
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	return &Instance{Graph: in.Graph.Clone(), Net: in.Net.Clone()}
}

// CopyFrom makes in a deep copy of src, reusing in's storage where
// capacity allows. PISA's annealing chains use it to recycle one
// candidate/incumbent instance pair instead of cloning per iteration.
func (in *Instance) CopyFrom(src *Instance) {
	if in.Graph == nil {
		in.Graph = NewTaskGraph()
	}
	if in.Net == nil {
		in.Net = &Network{}
	}
	in.Graph.CopyFrom(src.Graph)
	in.Net.CopyFrom(src.Net)
}

// Validate checks both halves of the instance, and that its times stay
// representable: the serial upper bound
//
//	Σ_t c(t)/min_v s(v) + Σ_(u,t) c(u,t)/min_(v≠w) s(v,w)
//
// (every task on the slowest node, every dependency over the weakest
// link; a network with no link of finite strength moves finite data for
// free) must be finite. No start or finish time a list scheduler
// computes exceeds it, so past this check "no node finishes the task
// before +Inf" cannot happen to a placement loop.
func (in *Instance) Validate() error {
	if in.Graph == nil || in.Net == nil {
		return fmt.Errorf("graph: instance missing graph or network")
	}
	if err := in.Graph.Validate(); err != nil {
		return err
	}
	if err := in.Net.Validate(); err != nil {
		return err
	}
	minSpeed, minLink := math.Inf(1), math.Inf(1)
	for v, s := range in.Net.Speeds {
		minSpeed = math.Min(minSpeed, s)
		for _, w := range in.Net.Links[v] {
			minLink = math.Min(minLink, w)
		}
	}
	bound := 0.0
	for _, task := range in.Graph.Tasks {
		bound += task.Cost / minSpeed
	}
	for _, succ := range in.Graph.Succ {
		for _, d := range succ {
			bound += d.Cost / minLink
		}
	}
	if math.IsInf(bound, 0) || math.IsNaN(bound) {
		return fmt.Errorf("graph: serial schedule length bound is %v: costs overflow on the slowest node and weakest link", bound)
	}
	return nil
}

// ExecTime returns the execution time of task t on node v: c(t)/s(v).
func (in *Instance) ExecTime(t, v int) float64 {
	return in.Graph.Tasks[t].Cost / in.Net.Speeds[v]
}

// CommTime returns the communication time of dependency (u, t) when u
// runs on node from and t on node to: c(u, t)/s(from, to). It is zero
// when both tasks share a node or the data size is zero.
func (in *Instance) CommTime(u, t, from, to int) float64 {
	if from == to {
		return 0
	}
	cost, ok := in.Graph.DepCost(u, t)
	if !ok {
		return 0
	}
	if cost == 0 {
		return 0
	}
	return cost / in.Net.Links[from][to]
}

// AvgExecTime returns the average execution time of task t over all
// nodes, the quantity used by HEFT-style rank computations.
func (in *Instance) AvgExecTime(t int) float64 {
	sum := 0.0
	for v := range in.Net.Speeds {
		sum += in.ExecTime(t, v)
	}
	return sum / float64(len(in.Net.Speeds))
}

// AvgCommTime returns the average communication time of dependency
// (u, t) over all distinct node pairs. Infinite-strength links contribute
// zero time. For a single-node network it returns 0.
func (in *Instance) AvgCommTime(u, t int) float64 {
	cost, ok := in.Graph.DepCost(u, t)
	if !ok || cost == 0 {
		return 0
	}
	nodes := len(in.Net.Speeds)
	if nodes < 2 {
		return 0
	}
	sum := 0.0
	count := 0
	for a := 0; a < nodes; a++ {
		for b := a + 1; b < nodes; b++ {
			if !math.IsInf(in.Net.Links[a][b], 1) {
				sum += cost / in.Net.Links[a][b]
			}
			count++
		}
	}
	return sum / float64(count)
}

// CCR returns the communication-to-computation ratio of the instance:
// average communication time over average execution time (Section IV-A's
// definition). It returns 0 for graphs with no dependencies.
func (in *Instance) CCR() float64 {
	comm, count := 0.0, 0
	for u, succ := range in.Graph.Succ {
		for _, d := range succ {
			comm += in.AvgCommTime(u, d.To)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	comm /= float64(count)
	comp := 0.0
	for t := range in.Graph.Tasks {
		comp += in.AvgExecTime(t)
	}
	comp /= float64(len(in.Graph.Tasks))
	if comp == 0 {
		return 0
	}
	return comm / comp
}
