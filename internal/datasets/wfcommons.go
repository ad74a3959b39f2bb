package datasets

import (
	"fmt"

	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/wfc"
)

// The wfc_* dataset family promotes WfCommons interchange instances to
// first-class registered datasets: each draws a workflow recipe, exports
// it as a wfformat document with a sampled machine list, and builds the
// scheduling instance by re-ingesting that document through wfc.Parse —
// the same reader path real .json/.json.gz WfCommons traces enter by.
// The round trip is deliberate: every generated instance doubles as a
// regression check that the interchange format preserves the scheduling
// model, and the family's instances are exactly what an operator gets
// from `saga convert` on a wfcommons file.
//
// Unlike the plain workflow datasets (Chameleon networks, infinite
// links), the wfc_* family carries the document's machine list into a
// finite-bandwidth network normalized to CCR 1 via SetHomogeneousCCR —
// the Section VII-A configuration.

// InstanceFromWfC imports a wfformat document as a scheduling instance —
// the one import `saga convert -from-wfc`, the daemon's wfc submissions
// and the wfc_* datasets share: links of uniform strength link, machines
// from the trace or, when it lists none, a unit network of nodes nodes,
// links rescaled to an average CCR of ccr when ccr > 0, validated.
func InstanceFromWfC(raw []byte, link, ccr float64, nodes int) (*graph.Instance, error) {
	doc, err := wfc.Parse(raw)
	if err != nil {
		return nil, err
	}
	g, err := doc.ToTaskGraph()
	if err != nil {
		return nil, err
	}
	net := doc.ToNetwork(link)
	if net == nil {
		net = graph.NewNetwork(nodes)
		for u := 0; u < nodes; u++ {
			for v := u + 1; v < nodes; v++ {
				net.SetLink(u, v, link)
			}
		}
	}
	inst := graph.NewInstance(g, net)
	if ccr > 0 {
		SetHomogeneousCCR(inst, ccr)
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
}

// wfcInstance generates one wfc_* instance by round-tripping the named
// recipe through the wfformat interchange.
func wfcInstance(name string, r *rng.RNG) *graph.Instance {
	g, err := WorkflowRecipe(name, r)
	if err != nil {
		panic(err)
	}
	doc := wfc.FromTaskGraph(name, g)
	n := r.IntBetween(4, 10)
	for v := 0; v < n; v++ {
		doc.Workflow.Machines = append(doc.Workflow.Machines, wfc.Machine{
			NodeName: fmt.Sprintf("m%d", v+1),
			Speed:    r.ClippedGaussian(1, 1.0/3, 0.2, 2),
		})
	}
	data, err := doc.Marshal()
	if err != nil {
		panic(err)
	}
	inst, err := InstanceFromWfC(data, 1, 1, 0)
	if err != nil {
		panic(err)
	}
	return inst
}

func init() {
	for _, name := range WorkflowNames {
		name := name
		full := "wfc_" + name
		Register(full, func() Generator {
			return GeneratorFunc{DatasetName: full, Fn: func(r *rng.RNG) *graph.Instance {
				return wfcInstance(name, r)
			}}
		})
	}
}
