// Package coord distributes a registered sweep's cells (experiments.NewSweep)
// to workers. A Coordinator is one sweep's ledger: which cells are
// pending, leased, backing off, committed or poisoned, over a Store that
// receives completed cells as they arrive. The Hub (hub.go) is the
// package's one http.Handler: it mounts ledgers — the one `saga
// coordinate -driver` pre-mounts on its checkpoint file, and those a
// `saga serve` daemon acquires for its dispatched requests — and is the
// only place that knows URLs. RunWorker (worker.go) is the client side.
//
// The ledger leans entirely on the repo's determinism-by-construction
// invariants. Cell indices, and with them the position-derived seeds,
// are global; a worker computes a leased cell exactly as a
// single-process run would, so the ledger is free to reassign cells at
// will — when a worker dies, hangs, or merely misses its heartbeats —
// without ever changing a result. Duplicate completions (a reclaimed
// lease finishing late, a retried delivery) are committed through the
// ledger's Store, which accepts byte-identical duplicates and refuses
// disagreeing ones: the store can only ever hold the one answer the
// sequential reference would produce.
//
// Failures degrade gracefully. A cell whose evaluation errors is
// retried with capped exponential backoff; after Options.MaxRetries
// attempts it is poisoned — parked, reported, and excluded from further
// leasing — so one bad cell cannot stall the other N-1. Completed cells
// hit the store incrementally, so a crashed `saga coordinate` restarted
// on the same checkpoint resumes with every committed cell intact.
package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"saga/internal/experiments"
	"saga/internal/httpx"
	"saga/internal/rng"
	"saga/internal/runner"
)

// Store is a ledger's commit target. serialize.Checkpoint is the
// durable file-backed implementation behind `saga coordinate -driver`;
// MemStore backs the sweeps a daemon dispatches, whose results never
// touch disk. Whatever the backing, Store carries the protocol's core
// guarantee: identical duplicates are no-ops, disagreeing ones are
// refused; a committed cell is durable when Store returns, and Load
// returns every cell committed so far.
type Store interface {
	runner.Checkpoint
	SetFingerprint(fp string)
}

// ErrAborted is the Wait result of a sweep torn down by Abort — its
// last client released it, not a cell or store failure.
var ErrAborted = errors.New("coord: sweep aborted")

// Options tunes the coordinator's leasing and retry policy. The zero
// value is usable: every field has a default.
type Options struct {
	// LeaseSize is the number of cells granted per lease (default 8).
	LeaseSize int
	// LeaseTTL is how long a lease lives without a heartbeat before its
	// unfinished cells are reclaimed and re-leased (default 30s).
	LeaseTTL time.Duration
	// MaxRetries is how many times a cell's evaluation may fail before
	// the cell is poisoned (default 3).
	MaxRetries int
	// RetryBackoff is the delay before a failed cell becomes leasable
	// again; it doubles per attempt, capped at 64x (default 1s).
	RetryBackoff time.Duration
	// ShuffleSeed, when non-zero, leases cells in a seed-derived random
	// order instead of index order. Results are identical either way —
	// the fault-injection suite sweeps seeds to prove it.
	ShuffleSeed uint64
}

func (o Options) withDefaults() Options {
	if o.LeaseSize <= 0 {
		o.LeaseSize = 8
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = time.Second
	}
	return o
}

// backoff returns the retry delay after the given number of failed
// attempts: RetryBackoff doubled per attempt, capped at 64x so a
// poisoning-bound cell never waits unboundedly between its last tries.
func (o Options) backoff(attempts int) time.Duration {
	shift := attempts - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 6 {
		shift = 6
	}
	return o.RetryBackoff << shift
}

// SweepInfo is the GET /sweep payload: everything a worker needs to
// rebuild the sweep locally through experiments.NewSweep and verify it
// agrees with the hub (fingerprint, cell count) before computing
// anything, plus where the sweep is mounted.
type SweepInfo struct {
	Name           string                  `json:"name"`
	Params         experiments.SweepParams `json:"params"`
	Fingerprint    string                  `json:"fingerprint"`
	Cells          int                     `json:"cells"`
	LeaseTTLMillis int64                   `json:"lease_ttl_ms"`

	// ID and Path (the base path of the sweep's lease/heartbeat/complete
	// endpoints) name the mounted sweep that needs work; Idle, with
	// everything else zero, says none does right now.
	ID   string `json:"id,omitempty"`
	Path string `json:"path,omitempty"`
	Idle bool   `json:"idle,omitempty"`
}

// LeaseRequest asks for the next cell range.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse grants a lease, asks the worker to wait (cells are
// leased out or backing off), or reports the sweep finished.
type LeaseResponse struct {
	Lease string `json:"lease,omitempty"`
	Cells []int  `json:"cells,omitempty"`
	Wait  bool   `json:"wait,omitempty"`
	Done  bool   `json:"done,omitempty"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
}

// HeartbeatResponse acknowledges a renewal. Cancel means the lease is
// no longer held (it expired and was reclaimed): the worker may finish
// and deliver anyway — completions dedup — but should stop renewing.
type HeartbeatResponse struct {
	OK     bool `json:"ok"`
	Cancel bool `json:"cancel,omitempty"`
}

// CompleteRequest delivers a lease's results: the computed cells and
// the per-cell failures. The ledger commits every named cell of the
// sweep, whether or not the lease still holds it (a reclaimed lease
// finishing late).
type CompleteRequest struct {
	Worker string                  `json:"worker"`
	Lease  string                  `json:"lease"`
	Cells  map[int]json.RawMessage `json:"cells,omitempty"`
	Failed map[int]string          `json:"failed,omitempty"`
}

// CompleteResponse acknowledges a delivery. Done piggybacks sweep
// completion so the worker that delivered the last cells learns it is
// finished without racing the coordinator's shutdown on one more
// /lease round trip.
type CompleteResponse struct {
	OK   bool `json:"ok"`
	Done bool `json:"done,omitempty"`
}

// Status is one ledger's counters (Coordinator.Status) or, from GET
// /status, their sum over every mounted sweep with Name "hub",
// ActiveWorkers, Sweeps and AuthRejected filled and Done meaning every
// mounted sweep is done.
type Status struct {
	Name          string `json:"name"`
	Cells         int    `json:"cells"`
	Committed     int    `json:"committed"`
	Poisoned      int    `json:"poisoned"`
	Leased        int    `json:"leased"`
	Pending       int    `json:"pending"`
	RetryWait     int    `json:"retry_wait"`
	Done          bool   `json:"done"`
	ActiveWorkers int    `json:"active_workers,omitempty"`
	Sweeps        int    `json:"sweeps,omitempty"`
	AuthRejected  uint64 `json:"auth_rejected,omitempty"`
}

// PoisonedError reports the cells that exhausted their retries. The
// sweep still completed: every other cell is committed, and the store
// holds them all — the operator re-runs only the listed cells after
// fixing whatever poisoned them.
type PoisonedError struct {
	Cells []int          // sorted
	Errs  map[int]string // last failure per poisoned cell
}

// Error implements error.
func (e *PoisonedError) Error() string {
	show := e.Cells
	const max = 10
	suffix := ""
	if len(show) > max {
		suffix = fmt.Sprintf(", … %d more", len(show)-max)
		show = show[:max]
	}
	return fmt.Sprintf("coord: sweep completed with %d poisoned cells (%v%s); last error of cell %d: %s",
		len(e.Cells), show, suffix, e.Cells[0], e.Errs[e.Cells[0]])
}

type cellState int

const (
	cellPending cellState = iota
	cellLeased
	cellRetryWait
	cellCommitted
	cellPoisoned
)

type cellInfo struct {
	state     cellState
	attempts  int
	notBefore time.Time // earliest re-lease when state == cellRetryWait
	lease     string    // holding lease when state == cellLeased
	lastErr   string
}

type leaseInfo struct {
	id      string
	worker  string
	cells   []int
	expires time.Time
}

// Coordinator owns one sweep's cell ledger and store. It serves nothing
// by itself: a Hub mounts it and routes the sweep's lease, heartbeat and
// complete requests to it.
type Coordinator struct {
	info  SweepInfo
	store Store
	opts  Options
	now   func() time.Time                 // the hub's clock
	logf  func(format string, args ...any) // the hub's logger, prefixed with the sweep's id

	mu        sync.Mutex
	cells     []cellInfo
	order     []int // leasing order over cell indices
	leases    map[string]*leaseInfo
	nextLease int
	committed int
	poisoned  int
	aborted   bool
	fatal     error         // store-level failure; ends the run
	done      chan struct{} // closed when committed+poisoned == Cells (or fatal)
	closed    bool
}

// newCoordinator builds the ledger of the named registered sweep on the
// hub's clock and logger. The store is bound to the sweep's fingerprint
// and loaded immediately: cells already present are committed up front,
// which is what makes a coordinator crash resumable — restart it on the
// same store and only the missing cells are leased out.
func newCoordinator(name string, params experiments.SweepParams, store Store, opts Options,
	now func() time.Time, logf func(format string, args ...any)) (*Coordinator, error) {
	sw, err := experiments.NewSweep(name, params)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	store.SetFingerprint(sw.Fingerprint)
	prior, err := store.Load()
	if err != nil {
		return nil, fmt.Errorf("coord: resume: %w", err)
	}
	c := &Coordinator{
		info: SweepInfo{
			Name:           sw.Name,
			Params:         params,
			Fingerprint:    sw.Fingerprint,
			Cells:          sw.Cells,
			LeaseTTLMillis: opts.LeaseTTL.Milliseconds(),
		},
		store:  store,
		opts:   opts,
		now:    now,
		logf:   logf,
		cells:  make([]cellInfo, sw.Cells),
		leases: map[string]*leaseInfo{},
		done:   make(chan struct{}),
	}
	for k := range prior {
		if k < 0 || k >= sw.Cells {
			return nil, fmt.Errorf("coord: resume: store holds cell %d outside the sweep's %d cells", k, sw.Cells)
		}
		c.cells[k].state = cellCommitted
		c.committed++
	}
	c.order = make([]int, sw.Cells)
	for i := range c.order {
		c.order[i] = i
	}
	if opts.ShuffleSeed != 0 {
		c.order = rng.New(opts.ShuffleSeed).Perm(sw.Cells)
	}
	c.logf("coordinator: sweep %s, %d cells (%d resumed from store)", sw.Name, sw.Cells, c.committed)
	c.mu.Lock()
	c.checkDoneLocked()
	c.mu.Unlock()
	return c, nil
}

// Abort tears the sweep down: outstanding leases are dropped, further
// leases answer Done, completions are acknowledged but not committed,
// and Wait returns ErrAborted. Safe to call more than once and after
// completion (then a no-op).
func (c *Coordinator) Abort() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.aborted || c.closed {
		return
	}
	c.aborted = true
	if c.fatal == nil {
		c.fatal = ErrAborted
	}
	for id := range c.leases {
		delete(c.leases, id)
	}
	for k := range c.cells {
		if c.cells[k].state == cellLeased {
			c.cells[k].state = cellPending
			c.cells[k].lease = ""
		}
	}
	c.logf("coordinator: sweep %s aborted (%d/%d committed)", c.info.Name, c.committed, c.info.Cells)
	c.checkDoneLocked()
}

// Wait blocks until the sweep finishes — every cell committed or
// poisoned — or cancel is closed. It returns nil on a clean sweep, a
// *PoisonedError when cells were poisoned (the store still holds every
// committed cell), or the fatal store error.
func (c *Coordinator) Wait(cancel <-chan struct{}) error {
	select {
	case <-c.done:
	case <-cancel:
		return fmt.Errorf("coord: canceled")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fatal != nil {
		return c.fatal
	}
	if c.poisoned == 0 {
		return nil
	}
	pe := &PoisonedError{Errs: map[int]string{}}
	for k := range c.cells {
		if c.cells[k].state == cellPoisoned {
			pe.Cells = append(pe.Cells, k)
			pe.Errs[k] = c.cells[k].lastErr
		}
	}
	sort.Ints(pe.Cells)
	return pe
}

// Status returns a snapshot of the ledger.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(c.now())
	s := Status{Name: c.info.Name, Cells: c.info.Cells, Committed: c.committed, Poisoned: c.poisoned}
	for k := range c.cells {
		switch c.cells[k].state {
		case cellPending:
			s.Pending++
		case cellLeased:
			s.Leased++
		case cellRetryWait:
			s.RetryWait++
		}
	}
	s.Done = c.committed+c.poisoned == c.info.Cells
	return s
}

// reapLocked expires overdue leases, returning their unfinished cells
// to the pending pool. Expiry is not a failure: the cell's attempt
// count is untouched (the worker may be dead, hung, or merely
// partitioned — none of which says anything about the cell), and
// because seeds derive from the global cell position, whoever computes
// the cell next produces the identical bytes.
func (c *Coordinator) reapLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		reclaimed := 0
		for _, k := range l.cells {
			if c.cells[k].state == cellLeased && c.cells[k].lease == id {
				c.cells[k].state = cellPending
				c.cells[k].lease = ""
				reclaimed++
			}
		}
		delete(c.leases, id)
		c.logf("coordinator: lease %s (worker %s) expired; reclaimed %d cells", id, l.worker, reclaimed)
	}
}

// checkDoneLocked closes done once no cell can make further progress.
func (c *Coordinator) checkDoneLocked() {
	if !c.closed && (c.fatal != nil || c.committed+c.poisoned == c.info.Cells) {
		c.closed = true
		close(c.done)
	}
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !httpx.ReadJSON(w, r, &req) {
		return
	}
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	if c.fatal != nil || c.committed+c.poisoned == c.info.Cells {
		httpx.WriteJSON(w, LeaseResponse{Done: true})
		return
	}
	var grant []int
	for _, k := range c.order {
		if len(grant) == c.opts.LeaseSize {
			break
		}
		ci := &c.cells[k]
		leasable := ci.state == cellPending ||
			(ci.state == cellRetryWait && !now.Before(ci.notBefore))
		if leasable {
			grant = append(grant, k)
		}
	}
	if len(grant) == 0 {
		// Everything outstanding is leased out or backing off; the worker
		// polls again. (Done was ruled out above.)
		httpx.WriteJSON(w, LeaseResponse{Wait: true})
		return
	}
	c.nextLease++
	id := fmt.Sprintf("L%d", c.nextLease)
	l := &leaseInfo{id: id, worker: req.Worker, cells: grant, expires: now.Add(c.opts.LeaseTTL)}
	c.leases[id] = l
	for _, k := range grant {
		c.cells[k].state = cellLeased
		c.cells[k].lease = id
	}
	c.logf("coordinator: lease %s -> worker %s: %d cells %v", id, req.Worker, len(grant), grant)
	httpx.WriteJSON(w, LeaseResponse{Lease: id, Cells: grant})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !httpx.ReadJSON(w, r, &req) {
		return
	}
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	l, ok := c.leases[req.Lease]
	if !ok {
		// Expired and reclaimed (or never existed): tell the worker to
		// stop renewing. Its late completion is still welcome — dedup
		// makes redundant delivery harmless.
		httpx.WriteJSON(w, HeartbeatResponse{Cancel: true})
		return
	}
	l.expires = now.Add(c.opts.LeaseTTL)
	httpx.WriteJSON(w, HeartbeatResponse{OK: true})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !httpx.ReadJSON(w, r, &req) {
		return
	}
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.aborted {
		// The sweep was torn down under the worker: nothing to commit,
		// nothing to retry. Done sends the worker back to its poll loop.
		httpx.WriteJSON(w, CompleteResponse{OK: false, Done: true})
		return
	}
	c.reapLocked(now)

	// Refuse the whole delivery before committing any of it: a request
	// naming a cell outside the sweep came from some other sweep.
	keys := sortedKeys(req.Cells)
	fkeys := sortedKeys(req.Failed)
	for _, ks := range [][]int{keys, fkeys} {
		for _, k := range ks {
			if k < 0 || k >= c.info.Cells {
				http.Error(w, fmt.Sprintf("cell %d outside the sweep's %d cells", k, c.info.Cells), http.StatusBadRequest)
				return
			}
		}
	}

	// Commit successes first — even from an expired or unknown lease
	// (the worker computed them with global seeds, so the bytes are the
	// bytes), and even for cells some other lease currently holds (the
	// holder's redundant completion will dedup).
	for _, k := range keys {
		if err := c.store.Store(k, req.Cells[k]); err != nil {
			// A disagreeing duplicate is a determinism violation — the one
			// fault no retry can mend. Park the sweep instead of racing to
			// overwrite the committed value.
			c.fatal = fmt.Errorf("coord: worker %s: %w", req.Worker, err)
			c.logf("coordinator: FATAL: %v", c.fatal)
			c.checkDoneLocked()
			http.Error(w, c.fatal.Error(), http.StatusConflict)
			return
		}
		ci := &c.cells[k]
		if ci.state != cellCommitted {
			if ci.state == cellPoisoned {
				// A late success heals a poisoned cell: the result exists
				// now, so there is nothing left to report.
				c.poisoned--
			}
			ci.state = cellCommitted
			ci.lease = ""
			c.committed++
		}
	}

	// Then failures: retry with backoff until the attempt budget runs
	// out, then poison. A failure report for a committed cell is moot —
	// someone else already produced the result.
	for _, k := range fkeys {
		ci := &c.cells[k]
		if ci.state == cellCommitted || ci.state == cellPoisoned {
			continue
		}
		ci.attempts++
		ci.lastErr = req.Failed[k]
		ci.lease = ""
		if ci.attempts >= c.opts.MaxRetries {
			ci.state = cellPoisoned
			c.poisoned++
			c.logf("coordinator: cell %d poisoned after %d attempts: %s", k, ci.attempts, ci.lastErr)
			continue
		}
		ci.state = cellRetryWait
		ci.notBefore = now.Add(c.opts.backoff(ci.attempts))
		c.logf("coordinator: cell %d failed (attempt %d/%d), retrying after %s: %s",
			k, ci.attempts, c.opts.MaxRetries, c.opts.backoff(ci.attempts), ci.lastErr)
	}

	if l, ok := c.leases[req.Lease]; ok {
		// The lease is settled: anything it still holds that was neither
		// delivered nor failed goes back to pending (a worker that ran a
		// partial lease — or reported a run-level error — never strands
		// cells until the TTL).
		for _, k := range l.cells {
			if c.cells[k].state == cellLeased && c.cells[k].lease == req.Lease {
				c.cells[k].state = cellPending
				c.cells[k].lease = ""
			}
		}
		delete(c.leases, req.Lease)
	}
	c.logf("coordinator: worker %s completed lease %s: %d cells, %d failed (%d/%d committed)",
		req.Worker, req.Lease, len(req.Cells), len(req.Failed), c.committed, c.info.Cells)
	c.checkDoneLocked()
	httpx.WriteJSON(w, CompleteResponse{OK: true, Done: c.committed+c.poisoned == c.info.Cells})
}

// sortedKeys returns m's cell indices in ascending order, the order
// deliveries are applied in.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
