package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"saga/internal/datasets"
	"saga/internal/experiments"
)

// The four sweep workloads drive `figures` and `saga` as child
// processes. One operation is one child invocation (for fig4_coord, one
// coordinated sweep), timed from process start to exit; operations run
// back to back, a calibration kernel run between them (calib.go), until
// the measuring window has been used.
//
// Child seeds come from a fixed pool, 1..pool, visited cyclically from
// offset seed mod pool. A PISA sweep's cost depends heavily on its seed
// (fig4 at paper scale took 0.54 s to 1.34 s over eleven seeds), so
// child seeds drawn afresh from every --seed put ±8 % of input noise on
// work_per_s, more than the regressions the bound is meant to catch.
// The pool is about as long as the operations that fit the window, so
// every run covers nearly all of it and only the order depends on the
// seed.

func itoa(n int) string    { return strconv.Itoa(n) }
func utoa(n uint64) string { return strconv.FormatUint(n, 10) }

// opID names one operation's input: a child seed and, for workloads
// that rotate over several inputs per seed, which one.
type opID struct {
	seed    uint64
	variant int
}

// sweepOp is one finished operation. output produces the bytes to
// verify and runs outside the window; procs are the children whose CPU
// and memory the operation used.
type sweepOp struct {
	id     opID
	wall   time.Duration
	host   float64 // host-speed factor around it (calib.go)
	procs  []proc
	err    error
	output func() ([]byte, error)
}

// sweepDef is what distinguishes the four sweep workloads.
type sweepDef struct {
	name     string
	pool     int // child seeds 1..pool
	variants int // operations per child seed (whole rounds only)
	work     func(id opID) (float64, error)
	// reference produces the expected output of an operation another way
	// (with another worker count, or locally); set-up repetition i references
	// operation i, and its duration is one setup_s sample.
	reference func(id opID) ([]byte, error)
	run       func(id opID) sweepOp
	// wellFormed is the shape check for operations without a reference.
	wellFormed func(id opID, out []byte) bool
}

func (d *sweepDef) id(seed uint64, k int) opID {
	return opID{seed: 1 + (seed+uint64(k/d.variants))%uint64(d.pool), variant: k % d.variants}
}

// runSweep is the common loop: references, timed operations, then
// verification. An operation is compared byte for byte with its
// reference if it has one, and with the first output seen for the same
// input otherwise (the pool wraps, and sweeps are deterministic);
// failing that it must at least be well-formed.
func runSweep(e *env, seed uint64, window time.Duration, d sweepDef) (*result, error) {
	r := &result{host: newHostSpeed()}
	expect := map[opID][]byte{}
	for i := 0; i < e.sz.setupReps; i++ {
		id := d.id(seed, i)
		start := time.Now()
		ref, err := d.reference(id)
		if err != nil {
			return nil, fmt.Errorf("%s: reference for seed %d: %w", d.name, id.seed, err)
		}
		r.setup = append(r.setup, time.Since(start).Seconds()/r.host.factor())
		expect[id] = ref
	}
	var ops []sweepOp
	start := time.Now()
	for k := 0; (time.Since(start) < window || k%d.variants != 0) && e.ctx.Err() == nil; k++ {
		op := d.run(d.id(seed, k))
		op.host = r.host.factor()
		ops = append(ops, op)
	}
	for _, op := range ops {
		for _, p := range op.procs {
			r.account(p)
		}
		work, err := d.work(op.id)
		if err == nil {
			err = op.err
		}
		var out []byte
		if err == nil {
			out, err = op.output()
		}
		want, known := expect[op.id]
		switch {
		case err != nil:
			r.fail(err.Error())
		case known && !bytes.Equal(out, want):
			r.fail(fmt.Sprintf("%s seed %d: output differs from its reference", d.name, op.id.seed))
		case !d.wellFormed(op.id, out):
			r.fail(fmt.Sprintf("%s seed %d: malformed output", d.name, op.id.seed))
		default:
			expect[op.id] = out
			r.ok(op.wall, op.host, work)
		}
	}
	return r, e.ctx.Err()
}

// cliOp runs one child to completion as an operation whose output is
// its stdout.
func cliOp(e *env, id opID, bin string, args []string) sweepOp {
	p := e.run(bin, args...)
	return sweepOp{id: id, wall: p.wall, procs: []proc{p}, err: p.err,
		output: func() ([]byte, error) { return p.stdout, nil }}
}

// gridOK: the output starts with the figure's header and holds at least
// rows lines.
func gridOK(out []byte, header string, rows int) bool {
	return bytes.HasPrefix(out, []byte(header)) && bytes.Count(out, []byte("\n")) >= rows
}

func fig4Args(sz sizes, workers int, seed uint64) []string {
	return []string{"-iters", itoa(sz.fig4Iters), "-restarts", itoa(sz.fig4Restarts),
		"-workers", itoa(workers), "-seed", utoa(seed), "fig4"}
}

func fig4Work(sz sizes) func(opID) (float64, error) {
	return func(id opID) (float64, error) {
		sw, err := experiments.NewSweep("fig4", experiments.SweepParams{Iters: sz.fig4Iters, Restarts: sz.fig4Restarts, Seed: id.seed})
		if err != nil {
			return 0, err
		}
		return float64(sw.Cells), nil
	}
}

// fig4OK: header, caption, column heads, then "Worst" and one row per
// scheduler.
func fig4OK(_ opID, out []byte) bool { return gridOK(out, "== Fig 4", 3+16) }

// runFig4Paper: the paper's headline grid, one process per seed.
func runFig4Paper(e *env, seed uint64, window time.Duration) (*result, error) {
	return runSweep(e, seed, window, sweepDef{
		name: "fig4_paper", pool: e.sz.fig4Pool, variants: 1,
		work: fig4Work(e.sz),
		reference: func(id opID) ([]byte, error) {
			p := e.run(e.figures, fig4Args(e.sz, e.W+1, id.seed)...)
			return p.stdout, p.err
		},
		run:        func(id opID) sweepOp { return cliOp(e, id, e.figures, fig4Args(e.sz, e.W, id.seed)) },
		wellFormed: fig4OK,
	})
}

func appArgs(sz sizes, workers int, id opID) []string {
	return []string{"-iters", itoa(sz.appIters), "-restarts", itoa(sz.appRestarts), "-n", itoa(sz.appN),
		"-ccr", "1", "-workflow", sz.appWorkflows[id.variant], "-workers", itoa(workers), "-seed", utoa(id.seed), "appspecific"}
}

// runAppSpecific: Section VII grids. A round is one invocation per
// workflow with one child seed; only whole rounds are run, so the mix of
// workflows is the same in every run.
func runAppSpecific(e *env, seed uint64, window time.Duration) (*result, error) {
	sz := e.sz
	return runSweep(e, seed, window, sweepDef{
		name: "appspecific_pisa", pool: sz.appPool, variants: len(sz.appWorkflows),
		work: func(id opID) (float64, error) {
			sw, err := experiments.NewSweep("appspecific", experiments.SweepParams{N: sz.appN, Iters: sz.appIters,
				Restarts: sz.appRestarts, Seed: id.seed, Workflow: sz.appWorkflows[id.variant], CCR: 1})
			if err != nil {
				return 0, err
			}
			return float64(sw.Cells), nil
		},
		reference: func(id opID) ([]byte, error) {
			p := e.run(e.figures, appArgs(sz, e.W+1, id)...)
			return p.stdout, p.err
		},
		run: func(id opID) sweepOp { return cliOp(e, id, e.figures, appArgs(sz, e.W, id)) },
		wellFormed: func(id opID, out []byte) bool {
			return gridOK(out, "== "+sz.appWorkflows[id.variant]+" (CCR", 9)
		},
	})
}

func scaleArgs(sz sizes, workers int, seed uint64) []string {
	return []string{"benchmark", "-datasets", strings.Join(sz.scaleDatasets, ","),
		"-schedulers", strings.Join(sz.scaleSchedulers, ","), "-n", itoa(sz.scaleN),
		"-workers", itoa(workers), "-seed", utoa(seed)}
}

// runScaleSchedule: one-shot scheduling of fresh 10k-task instances.
// Work is Σ tasks × nodes × schedulers over the instances an invocation
// generates and schedules; the reference step generates them too, to
// count.
func runScaleSchedule(e *env, seed uint64, window time.Duration) (*result, error) {
	sz := e.sz
	// The scale tier's task and node counts do not depend on the seed, so
	// every reference step counts the same work per operation.
	perOp := 0.0
	return runSweep(e, seed, window, sweepDef{
		name: "scale_schedule", pool: sz.scalePool, variants: 1,
		work: func(opID) (float64, error) { return perOp, nil },
		reference: func(id opID) ([]byte, error) {
			perOp = 0
			for _, name := range sz.scaleDatasets {
				insts, err := datasets.Dataset(name, sz.scaleN, id.seed)
				if err != nil {
					return nil, err
				}
				for _, inst := range insts {
					perOp += float64(inst.Graph.NumTasks() * inst.Net.NumNodes() * len(sz.scaleSchedulers))
				}
			}
			p := e.run(e.saga, scaleArgs(sz, e.W+1, id.seed)...)
			return p.stdout, p.err
		},
		run: func(id opID) sweepOp { return cliOp(e, id, e.saga, scaleArgs(sz, e.W, id.seed)) },
		wellFormed: func(_ opID, out []byte) bool {
			return gridOK(out, "max makespan ratio", 2+len(sz.scaleDatasets))
		},
	})
}

// coordWorkers is the fleet size of a coordinated sweep.
func coordWorkers(e *env) int {
	if e.W < 3 {
		return e.W
	}
	return 3
}

// coordOp is one coordinated fig4 sweep: a coordinator plus
// single-threaded workers, timed from coordinator spawn to coordinator
// exit.
type coordOp struct {
	store   string
	wall    time.Duration
	boot    time.Duration // spawn until the coordinator printed its URL
	coord   proc
	workers []proc
	err     error
}

// runCoordOp runs one coordinated sweep to completion. during, if set,
// is called with the coordinator's URL while the workers compute.
func runCoordOp(e *env, seed uint64, during func(url string)) coordOp {
	op := coordOp{store: e.tmpPath(fmt.Sprintf("coord-%d.ckpt", e.seq.Add(1)))}
	c, err := e.spawn(true, e.saga, "coordinate", "-driver", "fig4", "-iters", itoa(e.sz.fig4Iters),
		"-restarts", itoa(e.sz.fig4Restarts), "-seed", utoa(seed), "-checkpoint", op.store)
	if err != nil {
		op.err = err
		return op
	}
	op.boot = c.boot
	var workers []*daemon
	for i := 0; i < coordWorkers(e) && op.err == nil; i++ {
		w, err := e.spawn(false, e.saga, "worker", "-coordinator", c.url, "-workers", "1", "-name", fmt.Sprintf("w%d", i))
		if err != nil {
			op.err = err
			break
		}
		workers = append(workers, w)
	}
	if op.err != nil {
		c.stop()
	} else if during != nil {
		during(c.url)
	}
	op.coord = c.wait()
	op.wall = op.coord.wall
	// Workers notice the finished sweep on their next call and exit by
	// themselves; waiting for them is outside the timed span but before
	// the next operation, so sweeps never overlap.
	for _, w := range workers {
		op.workers = append(op.workers, w.wait())
	}
	for _, p := range append([]proc{op.coord}, op.workers...) {
		if op.err == nil {
			op.err = p.err
		}
	}
	return op
}

// renderStore prints a finished fig4 store the way a local run prints
// its result.
func renderStore(e *env, store string, seed uint64) ([]byte, error) {
	p := e.run(e.figures, append([]string{"-checkpoint", store}, fig4Args(e.sz, e.W, seed)...)...)
	return p.stdout, p.err
}

// runFig4Coord: the cells of fig4_paper through the lease coordinator.
// The finished store must render to exactly what a local run prints
// (ARCHITECTURE invariants 1, 2 and 7).
func runFig4Coord(e *env, seed uint64, window time.Duration) (*result, error) {
	return runSweep(e, seed, window, sweepDef{
		name: "fig4_coord", pool: e.sz.coordPool, variants: 1,
		work: fig4Work(e.sz),
		reference: func(id opID) ([]byte, error) {
			p := e.run(e.figures, fig4Args(e.sz, e.W, id.seed)...)
			return p.stdout, p.err
		},
		run: func(id opID) sweepOp {
			op := runCoordOp(e, id.seed, nil)
			return sweepOp{id: id, wall: op.wall, procs: append([]proc{op.coord}, op.workers...), err: op.err,
				output: func() ([]byte, error) { return renderStore(e, op.store, id.seed) }}
		},
		wellFormed: fig4OK,
	})
}
