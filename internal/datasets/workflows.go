package datasets

import (
	"fmt"

	"saga/internal/graph"
	"saga/internal/rng"
)

// WorkflowNames lists the nine scientific-workflow datasets in Table II.
var WorkflowNames = []string{
	"blast", "bwa", "cycles", "epigenomics", "genome",
	"montage", "seismology", "soykb", "srasearch",
}

// WorkflowRecipe builds a task graph with the named workflow's topology.
// The recipes encode the published structures of the WfCommons/Pegasus
// applications (blast and srasearch exactly as in the paper's Fig 9);
// see DESIGN.md, substitution 2.
func WorkflowRecipe(name string, r *rng.RNG) (*graph.TaskGraph, error) {
	switch name {
	case "blast":
		return blastGraph(r), nil
	case "bwa":
		return bwaGraph(r), nil
	case "cycles":
		return cyclesGraph(r), nil
	case "epigenomics":
		return epigenomicsGraph(r), nil
	case "genome":
		return genomeGraph(r), nil
	case "montage":
		return montageGraph(r), nil
	case "seismology":
		return seismologyGraph(r), nil
	case "soykb":
		return soykbGraph(r), nil
	case "srasearch":
		return srasearchGraph(r), nil
	}
	return nil, fmt.Errorf("datasets: unknown workflow %q", name)
}

func init() {
	for _, name := range WorkflowNames {
		register(name, func(r *rng.RNG) *graph.Instance {
			g, err := WorkflowRecipe(name, r)
			if err != nil {
				panic(err)
			}
			return graph.NewInstance(g, chameleonNetwork(r))
		})
	}
}

// wcost draws a task runtime or data size around mean: a clipped gaussian
// with sd mean/3 clipped to [mean/10, 3·mean] — heterogeneous but
// type-centered, the role the WfCommons trace distributions play.
func wcost(r *rng.RNG, mean float64) float64 {
	return r.ClippedGaussian(mean, mean/3, mean/10, 3*mean)
}

// SetHomogeneousCCR replaces every (finite) link strength of the
// instance's network with the single strength that makes the instance's
// average CCR — average data size over communication strength, relative
// to average execution time (Section VII-A) — equal target. Instances
// with no dependencies or zero computation are left unchanged.
func SetHomogeneousCCR(inst *graph.Instance, target float64) {
	meanData := inst.Graph.MeanDepCost()
	if meanData == 0 || target <= 0 {
		return
	}
	meanExec := 0.0
	for t := range inst.Graph.Tasks {
		meanExec += inst.AvgExecTime(t)
	}
	meanExec /= float64(len(inst.Graph.Tasks))
	if meanExec == 0 {
		return
	}
	strength := meanData / (target * meanExec)
	for u := 0; u < inst.Net.NumNodes(); u++ {
		for v := u + 1; v < inst.Net.NumNodes(); v++ {
			inst.Net.SetLink(u, v, strength)
		}
	}
}

// blastGraph is the paper's Fig 9b structure: a split task fans out to n
// blastall tasks, all of which feed two gather tasks (cat_blast and cat).
func blastGraph(r *rng.RNG) *graph.TaskGraph {
	n := r.IntBetween(10, 30)
	g := graph.NewTaskGraph()
	split := g.AddTask("split_fasta", wcost(r, 5))
	catBlast := -1
	blasts := make([]int, n)
	for i := range blasts {
		blasts[i] = g.AddTask(fmt.Sprintf("blastall_%d", i+1), wcost(r, 100))
		g.MustAddDep(split, blasts[i], wcost(r, 10))
	}
	catBlast = g.AddTask("cat_blast", wcost(r, 8))
	cat := g.AddTask("cat", wcost(r, 4))
	for _, b := range blasts {
		g.MustAddDep(b, catBlast, wcost(r, 10))
		g.MustAddDep(b, cat, wcost(r, 5))
	}
	return g
}

// bwaGraph: a reference-index task fans out to n bwa alignment tasks
// joined by two concatenation tasks (the Makeflow bwa example's shape).
func bwaGraph(r *rng.RNG) *graph.TaskGraph {
	n := r.IntBetween(10, 30)
	g := graph.NewTaskGraph()
	index := g.AddTask("bwa_index", wcost(r, 20))
	concat1 := g.AddTask("cat_sai", wcost(r, 6))
	concat2 := g.AddTask("cat_sam", wcost(r, 6))
	for i := 0; i < n; i++ {
		align := g.AddTask(fmt.Sprintf("bwa_aln_%d", i+1), wcost(r, 60))
		g.MustAddDep(index, align, wcost(r, 15))
		g.MustAddDep(align, concat1, wcost(r, 8))
		g.MustAddDep(align, concat2, wcost(r, 8))
	}
	return g
}

// cyclesGraph: the agroecosystem model — independent crop blocks, each a
// baseline simulation fanning out to k cycles simulations gathered by a
// per-block output parser; a final summary joins all blocks.
func cyclesGraph(r *rng.RNG) *graph.TaskGraph {
	blocks := r.IntBetween(2, 4)
	g := graph.NewTaskGraph()
	summary := g.AddTask("cycles_plots", wcost(r, 10))
	for b := 0; b < blocks; b++ {
		base := g.AddTask(fmt.Sprintf("baseline_cycles_%d", b+1), wcost(r, 30))
		parser := g.AddTask(fmt.Sprintf("output_parser_%d", b+1), wcost(r, 8))
		k := r.IntBetween(3, 8)
		for i := 0; i < k; i++ {
			sim := g.AddTask(fmt.Sprintf("cycles_%d_%d", b+1, i+1), wcost(r, 40))
			g.MustAddDep(base, sim, wcost(r, 5))
			g.MustAddDep(sim, parser, wcost(r, 6))
		}
		g.MustAddDep(parser, summary, wcost(r, 4))
	}
	return g
}

// epigenomicsGraph: m sequencing lanes, each splitting into k parallel
// four-stage pipelines (filter → sol2sanger → fast2bfq → map) merged per
// lane, then a global merge followed by an index/pileup chain.
func epigenomicsGraph(r *rng.RNG) *graph.TaskGraph {
	lanes := r.IntBetween(1, 3)
	g := graph.NewTaskGraph()
	global := g.AddTask("mapMergeAll", wcost(r, 15))
	for l := 0; l < lanes; l++ {
		split := g.AddTask(fmt.Sprintf("fastQSplit_%d", l+1), wcost(r, 10))
		merge := g.AddTask(fmt.Sprintf("mapMerge_%d", l+1), wcost(r, 12))
		k := r.IntBetween(2, 5)
		for i := 0; i < k; i++ {
			stageMeans := []float64{8, 5, 5, 80}
			stageNames := []string{"filterContams", "sol2sanger", "fast2bfq", "map"}
			prev := split
			for s := range stageNames {
				t := g.AddTask(fmt.Sprintf("%s_%d_%d", stageNames[s], l+1, i+1), wcost(r, stageMeans[s]))
				g.MustAddDep(prev, t, wcost(r, 10))
				prev = t
			}
			g.MustAddDep(prev, merge, wcost(r, 10))
		}
		g.MustAddDep(merge, global, wcost(r, 12))
	}
	sort := g.AddTask("maqIndex", wcost(r, 10))
	pileup := g.AddTask("pileup", wcost(r, 20))
	g.MustAddDep(global, sort, wcost(r, 15))
	g.MustAddDep(sort, pileup, wcost(r, 15))
	return g
}

// genomeGraph: the 1000genome reconstruction — per chromosome block, n
// individuals tasks merged, a sifting task, then p analysis pairs
// (mutation_overlap, frequency) each needing the merge and the sifting
// output.
func genomeGraph(r *rng.RNG) *graph.TaskGraph {
	blocks := r.IntBetween(1, 3)
	g := graph.NewTaskGraph()
	for b := 0; b < blocks; b++ {
		n := r.IntBetween(4, 8)
		merge := g.AddTask(fmt.Sprintf("individuals_merge_%d", b+1), wcost(r, 20))
		for i := 0; i < n; i++ {
			ind := g.AddTask(fmt.Sprintf("individuals_%d_%d", b+1, i+1), wcost(r, 50))
			g.MustAddDep(ind, merge, wcost(r, 20))
		}
		sift := g.AddTask(fmt.Sprintf("sifting_%d", b+1), wcost(r, 15))
		p := r.IntBetween(2, 4)
		for i := 0; i < p; i++ {
			mo := g.AddTask(fmt.Sprintf("mutation_overlap_%d_%d", b+1, i+1), wcost(r, 25))
			fr := g.AddTask(fmt.Sprintf("frequency_%d_%d", b+1, i+1), wcost(r, 35))
			g.MustAddDep(merge, mo, wcost(r, 25))
			g.MustAddDep(sift, mo, wcost(r, 5))
			g.MustAddDep(merge, fr, wcost(r, 25))
			g.MustAddDep(sift, fr, wcost(r, 5))
		}
	}
	return g
}

// montageGraph: the astronomy mosaic pipeline — mProject per image,
// mDiffFit per overlapping pair, mConcatFit → mBgModel, mBackground per
// image, then the mImgtbl → mAdd → mShrink → mJPEG tail chain.
func montageGraph(r *rng.RNG) *graph.TaskGraph {
	n := r.IntBetween(6, 14)
	g := graph.NewTaskGraph()
	projects := make([]int, n)
	for i := range projects {
		projects[i] = g.AddTask(fmt.Sprintf("mProject_%d", i+1), wcost(r, 30))
	}
	concat := g.AddTask("mConcatFit", wcost(r, 8))
	for i := 0; i+1 < n; i++ {
		diff := g.AddTask(fmt.Sprintf("mDiffFit_%d", i+1), wcost(r, 6))
		g.MustAddDep(projects[i], diff, wcost(r, 12))
		g.MustAddDep(projects[i+1], diff, wcost(r, 12))
		g.MustAddDep(diff, concat, wcost(r, 2))
	}
	bgModel := g.AddTask("mBgModel", wcost(r, 12))
	g.MustAddDep(concat, bgModel, wcost(r, 2))
	imgtbl := g.AddTask("mImgtbl", wcost(r, 6))
	for i := range projects {
		bg := g.AddTask(fmt.Sprintf("mBackground_%d", i+1), wcost(r, 8))
		g.MustAddDep(projects[i], bg, wcost(r, 12))
		g.MustAddDep(bgModel, bg, wcost(r, 2))
		g.MustAddDep(bg, imgtbl, wcost(r, 12))
	}
	add := g.AddTask("mAdd", wcost(r, 25))
	shrink := g.AddTask("mShrink", wcost(r, 6))
	jpeg := g.AddTask("mJPEG", wcost(r, 4))
	g.MustAddDep(imgtbl, add, wcost(r, 20))
	g.MustAddDep(add, shrink, wcost(r, 15))
	g.MustAddDep(shrink, jpeg, wcost(r, 8))
	return g
}

// seismologyGraph: n parallel sG1IterDecon deconvolutions joined by a
// single siftSTFByMisfit wrapper — the real application's two-level
// shape.
func seismologyGraph(r *rng.RNG) *graph.TaskGraph {
	n := r.IntBetween(10, 40)
	g := graph.NewTaskGraph()
	join := g.AddTask("wrapper_siftSTFByMisfit", wcost(r, 10))
	for i := 0; i < n; i++ {
		t := g.AddTask(fmt.Sprintf("sG1IterDecon_%d", i+1), wcost(r, 15))
		g.MustAddDep(t, join, wcost(r, 5))
	}
	return g
}

// soykbGraph: per-sample six-stage genomics chains forking into k
// haplotype callers merged per sample, then the global
// combine → select → filter tail.
func soykbGraph(r *rng.RNG) *graph.TaskGraph {
	samples := r.IntBetween(2, 5)
	g := graph.NewTaskGraph()
	combine := g.AddTask("combine_variants", wcost(r, 12))
	stages := []string{"align_to_ref", "sort_sam", "dedup", "add_replace", "realign_creator", "indel_realign"}
	means := []float64{60, 10, 10, 8, 20, 30}
	for s := 0; s < samples; s++ {
		prev := -1
		for i, st := range stages {
			t := g.AddTask(fmt.Sprintf("%s_%d", st, s+1), wcost(r, means[i]))
			if prev >= 0 {
				g.MustAddDep(prev, t, wcost(r, 15))
			}
			prev = t
		}
		merge := g.AddTask(fmt.Sprintf("genotype_gvcfs_%d", s+1), wcost(r, 15))
		k := r.IntBetween(2, 4)
		for i := 0; i < k; i++ {
			hc := g.AddTask(fmt.Sprintf("haplotype_caller_%d_%d", s+1, i+1), wcost(r, 40))
			g.MustAddDep(prev, hc, wcost(r, 15))
			g.MustAddDep(hc, merge, wcost(r, 10))
		}
		g.MustAddDep(merge, combine, wcost(r, 10))
	}
	sel := g.AddTask("select_variants", wcost(r, 8))
	filt := g.AddTask("filter_variants", wcost(r, 8))
	g.MustAddDep(combine, sel, wcost(r, 10))
	g.MustAddDep(sel, filt, wcost(r, 8))
	return g
}

// srasearchGraph is the paper's Fig 9a structure: n columns of four-task
// chains fed by nothing, two gather tasks collecting every column, and a
// final task t_{4n+3}; an initial task t0 fans out to every column head.
func srasearchGraph(r *rng.RNG) *graph.TaskGraph {
	n := r.IntBetween(4, 12)
	g := graph.NewTaskGraph()
	t0 := g.AddTask("t0", wcost(r, 5))
	stageMeans := []float64{20, 40, 15, 10}
	lasts := make([]int, n)
	for c := 0; c < n; c++ {
		prev := t0
		for s := 0; s < 4; s++ {
			t := g.AddTask(fmt.Sprintf("t%d", 1+s*n+c), wcost(r, stageMeans[s]))
			g.MustAddDep(prev, t, wcost(r, 12))
			prev = t
		}
		lasts[c] = prev
	}
	g1 := g.AddTask(fmt.Sprintf("t%d", 4*n+1), wcost(r, 8))
	g2 := g.AddTask(fmt.Sprintf("t%d", 4*n+2), wcost(r, 8))
	for _, t := range lasts {
		g.MustAddDep(t, g1, wcost(r, 8))
		g.MustAddDep(t, g2, wcost(r, 8))
	}
	final := g.AddTask(fmt.Sprintf("t%d", 4*n+3), wcost(r, 5))
	g.MustAddDep(g1, final, wcost(r, 4))
	g.MustAddDep(g2, final, wcost(r, 4))
	return g
}
