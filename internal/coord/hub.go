package coord

// The hub is the package's one http.Handler: any number of sweeps behind
// one address and one protocol. It has two mounters. `saga coordinate
// -driver X -checkpoint P` pre-mounts one sweep on the checkpoint file
// (Mount) and exits when it finishes. `saga serve` builds a hub in its
// own address space, serves it under /hub/, and mounts each dispatched
// portfolio/robustness request on a MemStore (Acquire), releasing it
// when the request is answered or abandoned (Release). Either way `saga
// worker -coordinator <url>` processes poll GET /sweep and rotate across
// whatever sweeps need cells.
//
// Sweep identity is the content hash of the sweep's fingerprint, so
// identical concurrent requests land on one sweep and share it through
// a refcount: the last Release aborts and unmounts, and the workers'
// next heartbeat or delivery answers 404. A pre-mounted sweep belongs
// to the process instead: Release leaves it alone.
//
// Endpoints (all JSON; HubOptions.Token guards every one):
//
//	GET    /sweep                 worker poll: which sweep needs cells?
//	GET    /status                aggregate progress for operators
//	POST   /sweeps/{id}/lease     lease the next cell range (or Wait / Done)
//	POST   /sweeps/{id}/heartbeat renew a lease before its TTL expires
//	POST   /sweeps/{id}/complete  deliver computed cells and per-cell failures

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"saga/internal/experiments"
	"saga/internal/httpx"
)

// HubOptions tunes the hub. The zero value is usable.
type HubOptions struct {
	// Sweep is the per-sweep ledger policy (lease size, TTL, retries…).
	// Ledgers run on the hub's Now and log through its Logf, prefixed
	// per sweep.
	Sweep Options
	// Token, when non-empty, requires bearer auth on every endpoint.
	Token string
	// WorkerTTL is how long after its last contact a worker still counts
	// as active (default 10s). ActiveWorkers is how the daemon decides
	// whether to dispatch a request and when to give up on the fleet.
	WorkerTTL time.Duration
	// Now is the clock, injectable for tests (default time.Now).
	Now func() time.Time
	// Logf, when non-nil, receives one line per hub event.
	Logf func(format string, args ...any)
}

func (o HubOptions) withDefaults() HubOptions {
	if o.WorkerTTL <= 0 {
		o.WorkerTTL = 10 * time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

type hubSweep struct {
	id    string
	name  string
	coord *Coordinator
	mem   *MemStore // nil for a sweep pre-mounted by Mount: no refcount
	refs  int
}

// Hub is an http.Handler hosting any number of coordinated sweeps.
type Hub struct {
	opts HubOptions
	mux  *http.ServeMux

	mu           sync.Mutex
	sweeps       map[string]*hubSweep
	order        []string // mount order; GET /sweep scans it
	workers      map[string]time.Time
	authRejected uint64
}

// NewHub builds an empty hub.
func NewHub(opts HubOptions) *Hub {
	h := &Hub{
		opts:    opts.withDefaults(),
		sweeps:  map[string]*hubSweep{},
		workers: map[string]time.Time{},
	}
	h.mux = http.NewServeMux()
	h.mux.HandleFunc("GET /sweep", h.handlePick)
	h.mux.HandleFunc("GET /status", h.handleStatus)
	h.mux.HandleFunc("POST /sweeps/{id}/{op}", h.handleProtocol)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Hub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !httpx.CheckBearer(r, h.opts.Token) {
		h.mu.Lock()
		h.authRejected++
		h.mu.Unlock()
		http.Error(w, "unauthorized", http.StatusUnauthorized)
		return
	}
	h.mux.ServeHTTP(w, r)
}

func (h *Hub) logf(format string, args ...any) {
	if h.opts.Logf != nil {
		h.opts.Logf(format, args...)
	}
}

// sweepID derives the hub's sweep id from a fingerprint: a short content
// hash, so identical requests always land on the same id.
func sweepID(fingerprint string) string {
	sum := sha256.Sum256([]byte(fingerprint))
	return fmt.Sprintf("s%x", sum[:8])
}

// touchWorker records contact from a worker (the ?worker= query workers
// append to their hub requests).
func (h *Hub) touchWorkerLocked(r *http.Request, now time.Time) {
	if name := r.URL.Query().Get("worker"); name != "" {
		h.workers[name] = now
	}
}

// activeWorkersLocked counts (and prunes) workers heard from within
// WorkerTTL.
func (h *Hub) activeWorkersLocked(now time.Time) int {
	for name, t := range h.workers {
		if now.Sub(t) > h.opts.WorkerTTL {
			delete(h.workers, name)
		}
	}
	return len(h.workers)
}

// ActiveWorkers counts the workers heard from within WorkerTTL.
func (h *Hub) ActiveWorkers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.activeWorkersLocked(h.opts.Now())
}

// mountedLocked snapshots the mounted sweeps in mount order.
func (h *Hub) mountedLocked() []*hubSweep {
	out := make([]*hubSweep, len(h.order))
	for i, id := range h.order {
		out[i] = h.sweeps[id]
	}
	return out
}

// unmountLocked aborts the sweep's ledger and forgets it.
func (h *Hub) unmountLocked(hs *hubSweep, why string) {
	hs.coord.Abort()
	delete(h.sweeps, hs.id)
	h.order = slices.DeleteFunc(h.order, func(id string) bool { return id == hs.id })
	h.logf("hub: sweep %s (%s) %s; unmounted", hs.id, hs.name, why)
}

// Mount pre-mounts a sweep on a caller-supplied store and returns its
// ledger, for the caller to Wait on. Cells already in the store are
// committed up front, so mounting the checkpoint of an interrupted run
// resumes it.
func (h *Hub) Mount(name string, params experiments.SweepParams, store Store) (*Coordinator, error) {
	sw, err := experiments.NewSweep(name, params)
	if err != nil {
		return nil, err
	}
	id := sweepID(sw.Fingerprint)
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.sweeps[id]; ok {
		return nil, fmt.Errorf("coord: sweep %s (%s) is already mounted", id, name)
	}
	hs, err := h.mountLocked(id, name, params, store)
	if err != nil {
		return nil, err
	}
	return hs.coord, nil
}

// Acquire mounts the named sweep on a fresh MemStore — or joins it, when
// an identical request already did — and takes one reference. The caller
// Waits on the ledger, reads the finished cells from the store, and
// calls Release exactly once.
func (h *Hub) Acquire(name string, params experiments.SweepParams) (*Coordinator, *MemStore, error) {
	// Resolve outside the lock: binding validates and fingerprints.
	sw, err := experiments.NewSweep(name, params)
	if err != nil {
		return nil, nil, err
	}
	id := sweepID(sw.Fingerprint)
	h.mu.Lock()
	defer h.mu.Unlock()
	hs, joined := h.sweeps[id]
	if !joined {
		mem := newMemStore()
		if hs, err = h.mountLocked(id, name, params, mem); err != nil {
			return nil, nil, err
		}
		hs.mem = mem
	} else if hs.mem == nil {
		return nil, nil, fmt.Errorf("coord: sweep %s (%s) is pre-mounted on a checkpoint", id, name)
	}
	hs.refs++
	if joined {
		h.logf("hub: sweep %s (%s) joined; %d clients share it", id, name, hs.refs)
	}
	return hs.coord, hs.mem, nil
}

// Release drops one Acquire reference. The last one aborts the ledger
// and unmounts the sweep, so the workers' next heartbeat or delivery
// answers 404 and they drop its cells. A pre-mounted sweep belongs to
// the process and is left alone.
func (h *Hub) Release(c *Coordinator) {
	h.mu.Lock()
	defer h.mu.Unlock()
	hs, ok := h.sweeps[sweepID(c.info.Fingerprint)]
	if !ok || hs.mem == nil {
		return
	}
	if hs.refs--; hs.refs <= 0 {
		h.unmountLocked(hs, "released")
	}
}

// mountLocked builds the sweep's ledger over store and appends it to the
// pick order.
func (h *Hub) mountLocked(id, name string, params experiments.SweepParams, store Store) (*hubSweep, error) {
	c, err := newCoordinator(name, params, store, h.opts.Sweep, h.opts.Now,
		func(format string, args ...any) { h.logf("["+id+"] "+format, args...) })
	if err != nil {
		return nil, err
	}
	hs := &hubSweep{id: id, name: name, coord: c}
	h.sweeps[id] = hs
	h.order = append(h.order, id)
	h.logf("hub: mounted sweep %s (%s, %d cells)", id, name, c.info.Cells)
	return hs, nil
}

// handlePick answers a worker's GET /sweep: the first mounted sweep with
// leasable work, else the first unfinished one (its cells may come back
// via reaping or retry), else Idle.
func (h *Hub) handlePick(w http.ResponseWriter, r *http.Request) {
	now := h.opts.Now()
	h.mu.Lock()
	h.touchWorkerLocked(r, now)
	candidates := h.mountedLocked()
	h.mu.Unlock()

	var fallback *hubSweep
	for _, hs := range candidates {
		st := hs.coord.Status()
		if st.Done {
			continue
		}
		if st.Pending > 0 || st.RetryWait > 0 {
			httpx.WriteJSON(w, h.sweepInfo(hs))
			return
		}
		if fallback == nil {
			fallback = hs
		}
	}
	if fallback != nil {
		httpx.WriteJSON(w, h.sweepInfo(fallback))
		return
	}
	httpx.WriteJSON(w, SweepInfo{Idle: true})
}

func (h *Hub) sweepInfo(hs *hubSweep) SweepInfo {
	info := hs.coord.info
	info.ID = hs.id
	info.Path = "/sweeps/" + hs.id
	return info
}

// lookup fetches a mounted sweep and records the calling worker's
// contact.
func (h *Hub) lookup(r *http.Request) (*hubSweep, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.touchWorkerLocked(r, h.opts.Now())
	hs, ok := h.sweeps[r.PathValue("id")]
	return hs, ok
}

// handleProtocol routes lease/heartbeat/complete to the sweep's ledger.
func (h *Hub) handleProtocol(w http.ResponseWriter, r *http.Request) {
	hs, ok := h.lookup(r)
	if !ok {
		// The sweep is gone — released by its last client, or this hub
		// restarted. 404 tells the worker to drop the cells and re-poll
		// GET /sweep.
		http.Error(w, "unknown sweep", http.StatusNotFound)
		return
	}
	switch r.PathValue("op") {
	case "lease":
		hs.coord.handleLease(w, r)
	case "heartbeat":
		hs.coord.handleHeartbeat(w, r)
	case "complete":
		hs.coord.handleComplete(w, r)
	default:
		http.Error(w, "unknown operation", http.StatusNotFound)
	}
}

// handleStatus aggregates every mounted sweep for operators (`saga
// coordinate -watch`).
func (h *Hub) handleStatus(w http.ResponseWriter, r *http.Request) {
	now := h.opts.Now()
	h.mu.Lock()
	candidates := h.mountedLocked()
	agg := Status{Name: "hub", Done: true,
		ActiveWorkers: h.activeWorkersLocked(now),
		Sweeps:        len(h.order),
		AuthRejected:  h.authRejected,
	}
	h.mu.Unlock()

	for _, hs := range candidates {
		st := hs.coord.Status()
		agg.Cells += st.Cells
		agg.Committed += st.Committed
		agg.Poisoned += st.Poisoned
		agg.Leased += st.Leased
		agg.Pending += st.Pending
		agg.RetryWait += st.RetryWait
		agg.Done = agg.Done && st.Done
	}
	httpx.WriteJSON(w, agg)
}

// MemStore is the in-memory Store behind the sweeps Acquire mounts: same
// dedup semantics as serialize.Checkpoint, no file. Like every Store, a
// MemStore is a runner.Checkpoint, which is how the daemon reads a
// finished sweep: it replays the local driver over the store, every cell
// loads and nothing is computed.
type MemStore struct {
	mu    sync.Mutex
	cells map[int]json.RawMessage
}

// newMemStore returns an empty store.
func newMemStore() *MemStore {
	return &MemStore{cells: map[int]json.RawMessage{}}
}

// SetFingerprint implements Store (a memory store has no cross-process
// identity to verify; the hub's content-hash id plays that role).
func (m *MemStore) SetFingerprint(fp string) {}

// Load implements Store: a snapshot of the committed cells.
func (m *MemStore) Load() (map[int]json.RawMessage, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]json.RawMessage, len(m.cells))
	for k, v := range m.cells {
		out[k] = v
	}
	return out, nil
}

// Store implements runner.Checkpoint with serialize.Checkpoint's
// contract: identical duplicates are no-ops, disagreeing ones errors.
func (m *MemStore) Store(index int, cell json.RawMessage) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if prior, ok := m.cells[index]; ok {
		if string(prior) == string(cell) {
			return nil
		}
		return fmt.Errorf("coord: cell %d delivered twice with different bytes (determinism violation)", index)
	}
	m.cells[index] = append(json.RawMessage(nil), cell...)
	return nil
}
