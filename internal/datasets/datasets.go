// Package datasets implements the 16 dataset generators of Table II in
// the PISA paper: three randomized-structure datasets (in_trees,
// out_trees, chains) paired with randomly weighted networks, nine
// scientific-workflow datasets (blast, bwa, cycles, epigenomics, genome,
// montage, seismology, soykb, srasearch) paired with Chameleon-inspired
// networks, and four IoT datasets (etl, predict, stats, train) paired
// with Edge/Fog/Cloud networks.
//
// The paper generates scientific workflows with the WfCommons synthetic
// generator and fits network speed distributions to real execution
// traces; offline, this package encodes each workflow's published
// topology as a parameterized recipe and samples speeds from clipped
// gaussians covering the same role (DESIGN.md, substitutions 2-4).
package datasets

import (
	"fmt"
	"sort"

	"saga/internal/graph"
	"saga/internal/rng"
)

// minNetWeight floors sampled network speeds and link strengths. The
// paper's clipped gaussians clip at zero, but a zero compute speed or
// link strength makes execution/communication time undefined, so
// generated (and perturbed) network weights are floored here instead.
const minNetWeight = 0.01

var registry = map[string]func(*rng.RNG) *graph.Instance{}

// register adds a dataset: gen draws one instance from the source of
// randomness it is given. It panics on duplicates.
func register(name string, gen func(*rng.RNG) *graph.Instance) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("datasets: duplicate registration of %q", name))
	}
	registry[name] = gen
}

// New returns the named dataset's instance generator.
func New(name string) (func(*rng.RNG) *graph.Instance, error) {
	gen, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("datasets: unknown dataset %q", name)
	}
	return gen, nil
}

// Names returns all registered dataset names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TableII lists the 16 datasets in the order the paper's Fig 2 y-axis
// uses (alphabetical groups as printed, bottom-to-top reversed here to
// read top-down).
var TableII = []string{
	"train", "stats", "srasearch", "soykb", "seismology", "predict",
	"out_trees", "montage", "in_trees", "genome", "etl", "epigenomics",
	"cycles", "chains", "bwa", "blast",
}

// Dataset draws n instances from the named generator, using independent
// sub-streams so instance i is reproducible regardless of batch size.
func Dataset(name string, n int, seed uint64) ([]*graph.Instance, error) {
	if n < 1 {
		return nil, fmt.Errorf("datasets: n = %d instances, want at least 1", n)
	}
	gen, err := New(name)
	if err != nil {
		return nil, err
	}
	r := rng.New(seed)
	out := make([]*graph.Instance, n)
	for i := range out {
		out[i] = gen(r.Split())
	}
	return out, nil
}

// clampNet floors a sampled network weight.
func clampNet(w float64) float64 {
	if w < minNetWeight {
		return minNetWeight
	}
	return w
}
