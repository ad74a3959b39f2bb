package graph_test

import (
	"os"
	"testing"

	"saga/internal/datasets"
	"saga/internal/graph"
)

// TestSparseTablesMatchDense10k is the scale-tier bit-identity check:
// on the pinned 10k-task scale_layered instance the edge-sparse Tables
// must agree with the dense reference on every accessor HEFT's ranks read
// — AvgExec, Exec, the link surface, the topo order, and the
// per-dependency average communication times. UpwardRank and
// TopoOrderByPriority are deterministic functions of exactly these
// inputs, so bit-equal tables imply a bit-identical HEFT schedule. It
// lives in an external test package because datasets imports graph. Opt
// in via SCALE_BENCH_GATE=1 (`make bench-scale`).
func TestSparseTablesMatchDense10k(t *testing.T) {
	if os.Getenv("SCALE_BENCH_GATE") == "" {
		t.Skip("scale-tier check; run via `make bench-scale` (SCALE_BENCH_GATE=1)")
	}
	insts, err := datasets.Dataset("scale_layered_10k", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst := insts[0]
	var sp graph.Tables
	var dn graph.DenseTables
	sp.Build(inst)
	dn.Build(inst)
	graph.AssertSparseMatchesDense(t, &sp, &dn, inst.Graph)
}
