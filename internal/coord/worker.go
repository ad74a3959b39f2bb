package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"saga/internal/experiments"
	"saga/internal/httpx"
	"saga/internal/runner"
)

// ErrCoordinatorGone marks a worker giving up because a hub it had
// been working for stopped answering. A worker holds no durable state —
// every committed cell already lives in the hub's store — so when the
// hub vanishes (its sweep finished and it exited, or it crashed
// awaiting a restart on its store) the right move is to stop cleanly,
// not to spin or to fail the operator's pipeline. Callers distinguish
// this from real worker failures with errors.Is. WorkerOptions.Persist
// trades this exit for patience: the fleet outlives hub restarts.
var ErrCoordinatorGone = errors.New("coordinator unreachable")

// errSweepGone is the internal signal that the current sweep vanished
// under the worker — released by its client, aborted, or lost to a hub
// restart. The worker drops whatever it computed (nobody owns the
// cells anymore) and returns to the sweep poll.
var errSweepGone = errors.New("sweep gone")

// errSweepRotate asks the outer loop to re-poll the hub: the current
// sweep has nothing leasable while another mounted sweep does.
var errSweepRotate = errors.New("rotate to another sweep")

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Name identifies the worker in leases and coordinator logs.
	Name string
	// Client issues the HTTP requests (default http.DefaultClient). The
	// fault-injection harness swaps in a misbehaving transport here.
	Client *http.Client
	// Workers bounds the runner pool within each lease (0 = GOMAXPROCS).
	Workers int
	// PollInterval is how long to sleep when the hub answers Wait or
	// Idle (default 200ms).
	PollInterval time.Duration
	// Persist keeps the worker alive across idle spells and outages: an
	// idle hub means "poll again", not "done", and an unreachable one is
	// waited out instead of returned as ErrCoordinatorGone. This is the
	// fleet mode behind `saga worker -coordinator <hub> -persist`.
	Persist bool
	// Progress, when non-nil, receives one runner.ProgressPrinter report
	// per sweep the worker joins, labelled "worker <Name>": the worker's
	// cumulative count pinned to the sweep-wide cell total
	// (runner.LeaseProgress semantics).
	Progress io.Writer
	// OnCellStored, when non-nil, runs after each cell lands in the
	// worker's local collector. An error simulates sudden worker death:
	// RunWorker returns immediately without delivering the lease — the
	// fault-injection harness's kill seam.
	OnCellStored func(index int) error
}

// RunWorker joins the hub at baseURL and computes leases until the hub
// has nothing left to hand out — or, with Persist, forever. GET /sweep
// names the mounted sweep that needs work (SweepInfo.Path); the worker
// rebuilds it locally through experiments.NewSweep, refuses to compute
// anything if the local fingerprint or cell count disagrees with the
// hub's — the same stale-parameters guard every checkpoint resume
// applies — runs its leases, then polls again, rotating across sweeps
// as requests come and go. A sweep that vanishes mid-lease (released by
// its client, or the hub restarted) answers 404 to the worker's next
// heartbeat or delivery: the worker cancels the lease's cell loop via
// context, drops the undelivered cells, and moves on — the cells belong
// to nobody now, and recomputing them elsewhere yields identical bytes
// anyway.
//
// Each lease runs the sweep restricted to the leased cells
// (runner.Options.Include), with a heartbeat goroutine renewing the
// lease, and delivers exactly the cells it computed: the in-memory
// collector starts empty on every lease. Per-cell failures are
// reported, not fatal: the ledger retries them elsewhere or poisons
// them.
// Run-level failures are reported as failures of every unfinished
// leased cell, so a deterministic driver error poisons its cells
// instead of livelocking the sweep.
func RunWorker(ctx context.Context, baseURL string, opts WorkerOptions) error {
	if opts.Name == "" {
		opts.Name = "worker"
	}
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 200 * time.Millisecond
	}
	baseURL = strings.TrimRight(baseURL, "/")
	workerQ := "?worker=" + url.QueryEscape(opts.Name)

	// reached: some earlier poll was answered, so an unreachable hub now
	// is one that went away, not one that was never there.
	reached := false
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var info SweepInfo
		if err := getJSON(ctx, opts.Client, baseURL+"/sweep"+workerQ, &info); err != nil {
			if httpx.IsConnErr(err) && ctx.Err() == nil {
				if opts.Persist {
					if err := sleepCtx(ctx, opts.PollInterval); err != nil {
						return err
					}
					continue
				}
				if reached {
					err = fmt.Errorf("%w: %v", ErrCoordinatorGone, err)
				}
			}
			return fmt.Errorf("coord: worker %s: fetch sweep: %w", opts.Name, err)
		}
		reached = true
		if info.Idle {
			// Nothing to hand out. Fleets wait for the next request;
			// one-shot workers are done.
			if !opts.Persist {
				return nil
			}
			if err := sleepCtx(ctx, opts.PollInterval); err != nil {
				return err
			}
			continue
		}

		err := runSweep(ctx, baseURL, workerQ, info, opts)
		switch {
		case err == nil, errors.Is(err, errSweepGone), errors.Is(err, errSweepRotate):
			// Done, dropped or rotated away; the next GET /sweep says what
			// (if anything) to work on now.
		case errors.Is(err, ErrCoordinatorGone):
			if !opts.Persist {
				return err
			}
			if err := sleepCtx(ctx, opts.PollInterval); err != nil {
				return err
			}
		default:
			return err
		}
	}
}

// runSweep computes one sweep's leases to completion. It returns nil
// when the sweep is done, errSweepGone/errSweepRotate to send the
// worker back to the hub poll, or a terminal error.
func runSweep(ctx context.Context, baseURL, workerQ string, info SweepInfo, opts WorkerOptions) error {
	ep := func(op string) string { return baseURL + info.Path + "/" + op + workerQ }

	sw, err := experiments.NewSweep(info.Name, info.Params)
	if err != nil {
		return fmt.Errorf("coord: worker %s: rebuild sweep: %w", opts.Name, err)
	}
	if sw.Fingerprint != info.Fingerprint {
		return fmt.Errorf("coord: worker %s: fingerprint mismatch: coordinator serves\n  %q\nbut these parameters build\n  %q\n— version skew between worker and coordinator binaries?",
			opts.Name, info.Fingerprint, sw.Fingerprint)
	}
	if sw.Cells != info.Cells {
		return fmt.Errorf("coord: worker %s: cell count mismatch: coordinator %d, local %d",
			opts.Name, info.Cells, sw.Cells)
	}
	heartbeatEvery := time.Duration(info.LeaseTTLMillis) * time.Millisecond / 3
	if heartbeatEvery <= 0 {
		heartbeatEvery = time.Second
	}

	var lp *runner.LeaseProgress
	if opts.Progress != nil {
		lp = runner.NewLeaseProgress(sw.Cells, runner.ProgressPrinter(opts.Progress, "worker "+opts.Name))
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lease LeaseResponse
		if err := postJSONRetry(ctx, opts.Client, ep("lease"), LeaseRequest{Worker: opts.Name}, &lease); err != nil {
			if isStatus(err, http.StatusNotFound) {
				return errSweepGone
			}
			return fmt.Errorf("coord: worker %s: lease: %w", opts.Name, err)
		}
		if lease.Done {
			return nil
		}
		if lease.Wait {
			// Nothing leasable here right now; ask the hub whether some
			// other sweep needs us before going back to sleep.
			var pick SweepInfo
			if err := getJSON(ctx, opts.Client, baseURL+"/sweep"+workerQ, &pick); err == nil &&
				!pick.Idle && pick.ID != info.ID {
				return errSweepRotate
			}
			if err := sleepCtx(ctx, opts.PollInterval); err != nil {
				return err
			}
			continue
		}

		leased := make(map[int]bool, len(lease.Cells))
		for _, k := range lease.Cells {
			leased[k] = true
		}
		var failedMu sync.Mutex
		failed := map[int]string{}

		// Renew the lease while the cells compute. A Cancel answer means
		// the lease was reclaimed; we finish and deliver anyway — the
		// completion dedups — but stop renewing. A 404 means the sweep
		// itself is gone: cancel the cell loop and drop everything.
		var dropped atomic.Bool
		leaseCtx, cancelLease := context.WithCancel(ctx)
		hbCtx, stopHB := context.WithCancel(ctx)
		var hbWG sync.WaitGroup
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			t := time.NewTicker(heartbeatEvery)
			defer t.Stop()
			for {
				select {
				case <-hbCtx.Done():
					return
				case <-t.C:
					var hb HeartbeatResponse
					err := postJSON(hbCtx, opts.Client, ep("heartbeat"),
						HeartbeatRequest{Worker: opts.Name, Lease: lease.Lease}, &hb)
					if isStatus(err, http.StatusNotFound) {
						dropped.Store(true)
						cancelLease()
						return
					}
					if err != nil || hb.Cancel {
						return
					}
				}
			}
		}()

		collector := &collectStore{hook: opts.OnCellStored}
		ro := runner.Options{
			Workers:    opts.Workers,
			Checkpoint: collector,
			Context:    leaseCtx,
			Include:    func(k int) bool { return leased[k] },
			OnCellError: func(k int, err error) {
				failedMu.Lock()
				failed[k] = err.Error()
				failedMu.Unlock()
			},
		}
		if lp != nil {
			ro.Progress = lp.Sweep()
		}
		runErr := sw.Run(ro)
		stopHB()
		hbWG.Wait()
		cancelLease()

		fresh := collector.cells
		var ke *killedError
		if errors.As(runErr, &ke) {
			// Simulated sudden death: no completion, no farewell — exactly
			// what a SIGKILL looks like to the coordinator.
			return fmt.Errorf("coord: worker %s killed: %w", opts.Name, ke.err)
		}
		if dropped.Load() {
			return errSweepGone
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if runErr != nil && !errors.Is(runErr, context.Canceled) {
			// A run-level failure (driver setup, appspecific's benchmarking
			// phase) felled every cell this lease still owed. Report them
			// failed so a deterministic error converges to poisoned cells
			// instead of cycling through expiring leases forever.
			for _, k := range lease.Cells {
				if _, ok := fresh[k]; ok {
					continue
				}
				if _, ok := failed[k]; ok {
					continue
				}
				failed[k] = runErr.Error()
			}
		}
		var ack CompleteResponse
		err := postJSONRetry(ctx, opts.Client, ep("complete"),
			CompleteRequest{Worker: opts.Name, Lease: lease.Lease, Cells: fresh, Failed: failed}, &ack)
		if err != nil {
			if isStatus(err, http.StatusNotFound) {
				return errSweepGone
			}
			return fmt.Errorf("coord: worker %s: complete: %w", opts.Name, err)
		}
		if ack.Done {
			// This delivery finished the sweep; skip the /lease round trip
			// that would only say so again.
			return nil
		}
	}
}

// sleepCtx pauses for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// isStatus reports whether err is an HTTP answer with the given code.
func isStatus(err error, code int) bool {
	var se *httpx.StatusError
	return errors.As(err, &se) && se.Code == code
}

// collectStore is the worker's in-memory runner.Checkpoint for one
// lease: it loads nothing, so the lease computes every leased cell, and
// keeps what the lease computed — exactly what the lease must deliver.
type collectStore struct {
	mu    sync.Mutex
	cells map[int]json.RawMessage
	hook  func(index int) error
}

func (s *collectStore) Load() (map[int]json.RawMessage, error) { return nil, nil }

func (s *collectStore) Store(index int, cell json.RawMessage) error {
	s.mu.Lock()
	if s.cells == nil {
		s.cells = map[int]json.RawMessage{}
	}
	s.cells[index] = cell
	s.mu.Unlock()
	if s.hook != nil {
		if err := s.hook(index); err != nil {
			return &killedError{err: err}
		}
	}
	return nil
}

// killedError marks a checkpoint-store failure injected by the
// OnCellStored kill seam, so RunWorker can tell simulated death from a
// real infrastructure error.
type killedError struct{ err error }

func (e *killedError) Error() string { return e.err.Error() }
func (e *killedError) Unwrap() error { return e.err }

func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	return httpx.GetJSON(ctx, client, url, out)
}

// workerRetry paces the worker's lease/complete calls: per-hop timeouts
// and capped exponential backoff with jitter, so a fleet re-dialing a
// restarting hub spreads out instead of stampeding.
var workerRetry = httpx.RetryPolicy{Attempts: 3, Base: 150 * time.Millisecond, Cap: 2 * time.Second, PerTry: 10 * time.Second}

// postJSONRetry is httpx.PostJSON under the worker retry policy,
// wrapping persistent unreachability in ErrCoordinatorGone. HTTP-level
// errors (a non-200 status) are answers, not outages, and return
// immediately.
func postJSONRetry(ctx context.Context, client *http.Client, url string, in, out any) error {
	err := workerRetry.Do(ctx, func(ctx context.Context) error {
		return httpx.PostJSON(ctx, client, url, in, out)
	})
	if err != nil && httpx.IsConnErr(err) {
		return fmt.Errorf("%w after %d attempts: %v", ErrCoordinatorGone, workerRetry.Attempts, err)
	}
	return err
}

func postJSON(ctx context.Context, client *http.Client, url string, in, out any) error {
	return httpx.PostJSON(ctx, client, url, in, out)
}
