package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sizes are the workload constants. They are fixed in code, never
// adapted to the host or to how fast a run goes; only the number of
// operations that fit the measuring window varies. README.md gives the
// reason for each value.
type sizes struct {
	fig4Iters, fig4Restarts int
	// Child-seed pools of the sweep workloads (see sweeps.go), each at
	// most as long as the operations that fit the window.
	fig4Pool, coordPool, appPool, scalePool int
	appIters, appRestarts                   int
	appN                                    int
	appWorkflows                            []string
	scaleDatasets                           []string
	scaleSchedulers                         []string
	scaleN                                  int
	hotDraws                                int // instances per workflow recipe in serve_hot
	coldBodies                              int // distinct instances in serve_cold
	serveSchedulers                         []string
	warmup                                  int // requests each client sends before a serve window
	setupReps                               int
	layerScale                              int    // divisor of the traced pass's repetition counts
	midDataset, bigDataset                  string // the traced pass's "1k" and "10k" instances
}

var fullSizes = sizes{
	fig4Iters: 1000, fig4Restarts: 5,
	fig4Pool: 12, coordPool: 8, appPool: 4, scalePool: 8,
	appIters: 200, appRestarts: 2, appN: 20,
	appWorkflows:    []string{"montage", "epigenomics", "srasearch"},
	scaleDatasets:   []string{"scale_layered_10k", "scale_chains_10k"},
	scaleSchedulers: []string{"HEFT", "CPoP", "FCP", "FLB", "MCT", "MET", "OLB", "FastestNode"},
	scaleN:          2,
	hotDraws:        6,
	coldBodies:      2048,
	serveSchedulers: []string{"HEFT", "CPoP", "MinMin", "FCP"},
	warmup:          1000,
	setupReps:       3,
	layerScale:      1,
	midDataset:      "scale_layered_1k",
	bigDataset:      "scale_layered_10k",
}

// smokeSizes keeps every code path of the full run at toy cost; the
// numbers it produces mean nothing. bench_test.go uses it.
var smokeSizes = sizes{
	fig4Iters: 10, fig4Restarts: 1,
	fig4Pool: 12, coordPool: 8, appPool: 4, scalePool: 8,
	appIters: 5, appRestarts: 1, appN: 2,
	appWorkflows:    []string{"montage", "epigenomics", "srasearch"},
	scaleDatasets:   []string{"scale_layered_1k", "scale_chains_1k"},
	scaleSchedulers: []string{"HEFT", "CPoP", "FCP", "FLB", "MCT", "MET", "OLB", "FastestNode"},
	scaleN:          1,
	hotDraws:        1,
	coldBodies:      96,
	serveSchedulers: []string{"HEFT", "CPoP", "MinMin", "FCP"},
	warmup:          20,
	setupReps:       1,
	layerScale:      10,
	midDataset:      "scale_layered_1k",
	bigDataset:      "scale_layered_1k",
}

// env is one benchmark process: where the binaries and temp files live,
// the load width W, and the context whose cancellation kills every
// child still running.
type env struct {
	root    string // repository root (holds go.mod, cmd/, BENCHMARK.json)
	build   string // root/.bench_build
	tmp     string // private temp dir, removed by close
	saga    string
	figures string
	buildS  float64 // wall seconds of building the two CLIs
	W       int     // workers / clients / connections: half of cores, at least 1
	cores   int     // min(nproc, 4): the width of the per-layer parallelism metrics
	sz      sizes

	ctx    context.Context
	cancel context.CancelFunc

	seq     atomic.Int64 // names temp files
	mu      sync.Mutex
	daemons []*daemon
}

// findRoot walks up from the working directory to the repository root,
// so both `bash bench/run.sh` (cwd = root) and `go run -C bench .`
// (cwd = bench) work.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "saga", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no repository root (cmd/saga/main.go + BENCHMARK.json) above the working directory")
		}
		dir = parent
	}
}

// newEnv builds the two CLIs the end-to-end workloads drive and makes
// the private temp dir. The Go build cache goes inside .bench_build
// unless the caller already chose one (run.sh does).
func newEnv(root string, sz sizes, timeout time.Duration) (*env, error) {
	e := &env{root: root, build: filepath.Join(root, ".bench_build"), sz: sz}
	// Half the cores do the measured work; the rest are left to the
	// children's garbage collectors, the harness and whatever else the
	// host runs. With every core loaded, fig4 on the 2-core reference host
	// spread 18 % between back-to-back invocations; with one, 8 %.
	e.cores = min(runtime.NumCPU(), 4)
	e.W = max(e.cores/2, 1)
	bin := filepath.Join(e.build, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(e.build, "tmp"), 0o755); err != nil {
		return nil, err
	}
	var err error
	if e.tmp, err = os.MkdirTemp(filepath.Join(e.build, "tmp"), "run-"); err != nil {
		return nil, err
	}
	e.ctx, e.cancel = context.WithTimeout(context.Background(), timeout)

	start := time.Now()
	cmd := exec.CommandContext(e.ctx, "go", "build", "-o", bin+string(os.PathSeparator), "./cmd/saga", "./cmd/figures")
	cmd.Dir = root
	cmd.Env = os.Environ()
	if os.Getenv("GOCACHE") == "" {
		cmd.Env = append(cmd.Env, "GOCACHE="+filepath.Join(e.build, "gocache"))
	}
	if out, err := cmd.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("bench: building cmd/saga and cmd/figures: %v\n%s", err, out)
	}
	e.buildS = time.Since(start).Seconds()
	e.saga = filepath.Join(bin, "saga")
	e.figures = filepath.Join(bin, "figures")
	return e, nil
}

// close kills and reaps every child still alive and removes the temp
// dir. It is safe to call more than once.
func (e *env) close() {
	e.cancel()
	e.mu.Lock()
	ds := e.daemons
	e.daemons = nil
	e.mu.Unlock()
	for _, d := range ds {
		<-d.done
	}
	os.RemoveAll(e.tmp)
}

// tmpPath returns a fresh path inside the temp dir.
func (e *env) tmpPath(name string) string { return filepath.Join(e.tmp, name) }

// proc is the outcome of one child process.
type proc struct {
	stdout []byte
	wall   time.Duration
	cpu    time.Duration // user + system
	rssKB  int64         // peak resident set
	err    error         // non-nil on start failure or non-zero exit, with stderr attached
}

func usage(ps *os.ProcessState) (cpu time.Duration, rssKB int64) {
	if ps == nil {
		return 0, 0
	}
	cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssKB = int64(ru.Maxrss)
	}
	return cpu, rssKB
}

// run executes one child to completion: wall is process start to exit.
func (e *env) run(bin string, args ...string) proc {
	cmd := exec.CommandContext(e.ctx, bin, args...)
	cmd.Dir = e.tmp
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	p := proc{stdout: stdout.Bytes(), wall: time.Since(start)}
	p.cpu, p.rssKB = usage(cmd.ProcessState)
	if err != nil {
		p.err = fmt.Errorf("%s %v: %v: %s", filepath.Base(bin), args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return p
}

var urlRe = regexp.MustCompile(`http://127\.0\.0\.1:\d+\n`)

// urlWatcher is a child's stdout: it keeps what the child printed and
// announces the first loopback URL, which is how `saga serve` and `saga
// coordinate` report the port that 127.0.0.1:0 resolved to.
type urlWatcher struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	found chan string // receives the URL once; buffered
	sent  bool
}

func (w *urlWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if m := urlRe.Find(w.buf.Bytes()); m != nil {
			w.sent = true
			w.found <- string(m[:len(m)-1])
		}
	}
	return len(p), nil
}

func (w *urlWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// daemon is a long-running child: `saga serve`, `saga coordinate` or a
// `saga worker`.
type daemon struct {
	cmd    *exec.Cmd
	url    string        // empty for workers
	boot   time.Duration // spawn until the URL was printed
	start  time.Time
	out    *urlWatcher
	stderr bytes.Buffer
	done   chan struct{} // closed when the process has been reaped
	proc   proc          // valid after done
}

// spawn starts a daemon. With wantURL it waits for the child to print
// its address and fails if the child exits first.
func (e *env) spawn(wantURL bool, bin string, args ...string) (*daemon, error) {
	d := &daemon{out: &urlWatcher{found: make(chan string, 1)}, done: make(chan struct{})}
	d.cmd = exec.CommandContext(e.ctx, bin, args...)
	d.cmd.Dir = e.tmp
	d.cmd.Stdout, d.cmd.Stderr = d.out, &d.stderr
	d.start = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s %v: %w", filepath.Base(bin), args, err)
	}
	e.mu.Lock()
	e.daemons = append(e.daemons, d)
	e.mu.Unlock()
	go func() {
		err := d.cmd.Wait()
		d.proc = proc{stdout: []byte(d.out.String()), wall: time.Since(d.start)}
		d.proc.cpu, d.proc.rssKB = usage(d.cmd.ProcessState)
		if err != nil {
			d.proc.err = fmt.Errorf("%s %v: %v: %s", filepath.Base(bin), args, err, bytes.TrimSpace(d.stderr.Bytes()))
		}
		close(d.done)
	}()
	if !wantURL {
		return d, nil
	}
	select {
	case d.url = <-d.out.found:
		d.boot = time.Since(d.start)
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s %v exited before printing its address: %v", filepath.Base(bin), args, d.proc.err)
	case <-e.ctx.Done():
		<-d.done
		return nil, e.ctx.Err()
	}
}

// wait blocks until the daemon has exited by itself.
func (d *daemon) wait() proc {
	<-d.done
	return d.proc
}

// stop asks the daemon to drain (SIGTERM) and kills it if it has not
// exited five seconds later.
func (d *daemon) stop() proc {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	return d.proc
}

// selfCPU is the benchmark process's own user + system time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
