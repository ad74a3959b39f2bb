package coord

// The hub is what `saga coordinate` serves: any number of sweeps behind
// one address and one protocol. `saga coordinate -driver X -checkpoint P`
// pre-mounts one sweep on the checkpoint file (Mount) and exits when it
// finishes; `saga coordinate -hub` starts empty, and `saga serve
// -coordinator` daemons register each portfolio/robustness request as a
// sweep on a MemStore (internal/serve's dispatch path). Either way `saga
// worker -coordinator <url>` processes poll GET /sweep and rotate across
// whatever sweeps need cells.
//
// Sweep identity is the content hash of the sweep's fingerprint, which
// is what makes the dispatch path coordinator-crash recoverable: a
// restarted hub starts empty, the daemon's next status poll answers 404,
// the daemon re-registers, and the hash maps the request to the *same*
// sweep id — so a worker that computed cells against the old incarnation
// delivers into the new one and the results are the results (global
// position-derived seeds; StoreDedup refuses disagreement). Identical
// concurrent requests share one sweep through a refcount; DELETE
// decrements it and the last client's release aborts and unmounts. A
// pre-mounted sweep belongs to the process instead: DELETE is refused
// and SweepTTL never unmounts it.
//
// Endpoints (all JSON; HubOptions.Token guards every one):
//
//	POST   /sweeps                register (or re-join) a sweep
//	GET    /sweep                 worker poll: which sweep needs cells?
//	GET    /status                aggregate progress for operators
//	GET    /sweeps/{id}/status    one sweep's ledger
//	GET    /sweeps/{id}/cells     the committed cells (the result payload)
//	DELETE /sweeps/{id}           release: last ref aborts + unmounts
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
	// Its Logf is ignored — ledgers log through the hub's Logf, prefixed
	// per sweep.
	Sweep Options
	// Token, when non-empty, requires bearer auth on every endpoint.
	Token string
	// WorkerTTL is how long after its last contact a worker still counts
	// as active (default 10s). ActiveWorkers drives the daemon's
	// no-worker degradation window.
	WorkerTTL time.Duration
	// SweepTTL unmounts registered sweeps nobody has touched — no client
	// status poll, no worker lease traffic — for this long (default
	// 15m). It is the leak bound for daemons that crashed between
	// register and release.
	SweepTTL time.Duration
	// Now is the clock, injectable for tests (default time.Now).
	Now func() time.Time
	// Logf, when non-nil, receives one line per hub event.
	Logf func(format string, args ...any)
}

func (o HubOptions) withDefaults() HubOptions {
	if o.WorkerTTL <= 0 {
		o.WorkerTTL = 10 * time.Second
	}
	if o.SweepTTL <= 0 {
		o.SweepTTL = 15 * time.Minute
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// RegisterRequest mounts (or re-joins) a sweep on the hub.
type RegisterRequest struct {
	Name   string                  `json:"name"`
	Params experiments.SweepParams `json:"params"`
}

// RegisterResponse identifies the mounted sweep. Existing reports that
// the sweep was already mounted (an identical concurrent request, or a
// re-registration after the client lost track of it): the caller joined
// it rather than starting fresh.
type RegisterResponse struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	Cells       int    `json:"cells"`
	Existing    bool   `json:"existing,omitempty"`
}

// CellsResponse is the GET /sweeps/{id}/cells payload: every committed
// cell, keyed by global cell index.
type CellsResponse struct {
	Cells map[int]json.RawMessage `json:"cells"`
}

type hubSweep struct {
	id      string
	name    string
	coord   *Coordinator
	pinned  bool // pre-mounted by Mount: no refcount, no TTL
	refs    int
	touched time.Time
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
	h.mux.HandleFunc("POST /sweeps", h.handleRegister)
	h.mux.HandleFunc("GET /sweep", h.handlePick)
	h.mux.HandleFunc("GET /status", h.handleStatus)
	h.mux.HandleFunc("DELETE /sweeps/{id}", h.handleRelease)
	h.mux.HandleFunc("GET /sweeps/{id}/status", h.handleSweepStatus)
	h.mux.HandleFunc("GET /sweeps/{id}/cells", h.handleCells)
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

// SweepID derives the hub's sweep id from a fingerprint: a short content
// hash, so identical requests — including one replayed after a hub
// restart — always land on the same id.
func SweepID(fingerprint string) string {
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

// gcLocked unmounts registered sweeps whose last touch is older than
// SweepTTL.
func (h *Hub) gcLocked(now time.Time) {
	// Backwards, so unmounting shifts only entries already visited.
	for i := len(h.order) - 1; i >= 0; i-- {
		if hs := h.sweeps[h.order[i]]; !hs.pinned && now.Sub(hs.touched) > h.opts.SweepTTL {
			h.unmountLocked(hs, "expired untouched")
		}
	}
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
	id := SweepID(sw.Fingerprint)
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.sweeps[id]; ok {
		return nil, fmt.Errorf("coord: sweep %s (%s) is already mounted", id, name)
	}
	hs, err := h.mountLocked(id, name, params, store)
	if err != nil {
		return nil, err
	}
	hs.pinned = true
	return hs.coord, nil
}

// mountLocked builds the sweep's ledger over store and appends it to the
// pick order.
func (h *Hub) mountLocked(id, name string, params experiments.SweepParams, store Store) (*hubSweep, error) {
	opts := h.opts.Sweep
	opts.Logf = nil
	if h.opts.Logf != nil {
		logf := h.opts.Logf
		opts.Logf = func(format string, args ...any) { logf("["+id+"] "+format, args...) }
	}
	c, err := New(name, params, store, opts)
	if err != nil {
		return nil, err
	}
	hs := &hubSweep{id: id, name: name, coord: c, touched: h.opts.Now()}
	h.sweeps[id] = hs
	h.order = append(h.order, id)
	h.logf("hub: mounted sweep %s (%s, %d cells)", id, name, c.info.Cells)
	return hs, nil
}

func (h *Hub) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !readJSON(w, r, &req) {
		return
	}
	// Resolve outside the lock: NewSweep validates and fingerprints.
	sw, err := experiments.NewSweep(req.Name, req.Params)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id := SweepID(sw.Fingerprint)
	now := h.opts.Now()

	h.mu.Lock()
	defer h.mu.Unlock()
	h.gcLocked(now)
	hs, existing := h.sweeps[id]
	if !existing {
		if hs, err = h.mountLocked(id, req.Name, req.Params, NewMemStore()); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	hs.refs++
	hs.touched = now
	writeJSON(w, RegisterResponse{ID: id, Fingerprint: sw.Fingerprint, Cells: sw.Cells, Existing: existing})
}

func (h *Hub) handleRelease(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h.mu.Lock()
	defer h.mu.Unlock()
	hs, ok := h.sweeps[id]
	if !ok {
		http.Error(w, "unknown sweep", http.StatusNotFound)
		return
	}
	if hs.pinned {
		http.Error(w, "sweep is pre-mounted by the coordinator process, not released by clients", http.StatusConflict)
		return
	}
	if hs.refs--; hs.refs <= 0 {
		h.unmountLocked(hs, "released")
	}
	writeJSON(w, map[string]bool{"ok": true})
}

// handlePick answers a worker's GET /sweep: the first mounted sweep with
// leasable work, else the first unfinished one (its cells may come back
// via reaping or retry), else Idle.
func (h *Hub) handlePick(w http.ResponseWriter, r *http.Request) {
	now := h.opts.Now()
	h.mu.Lock()
	h.touchWorkerLocked(r, now)
	h.gcLocked(now)
	candidates := h.mountedLocked()
	h.mu.Unlock()

	var fallback *hubSweep
	for _, hs := range candidates {
		st := hs.coord.Status()
		if st.Done {
			continue
		}
		if st.Pending > 0 || st.RetryWait > 0 {
			writeJSON(w, h.sweepInfo(hs))
			return
		}
		if fallback == nil {
			fallback = hs
		}
	}
	if fallback != nil {
		writeJSON(w, h.sweepInfo(fallback))
		return
	}
	writeJSON(w, SweepInfo{Idle: true})
}

func (h *Hub) sweepInfo(hs *hubSweep) SweepInfo {
	info := hs.coord.info
	info.ID = hs.id
	info.Path = "/sweeps/" + hs.id
	return info
}

// lookup fetches a mounted sweep and bumps its touch time.
func (h *Hub) lookup(r *http.Request) (*hubSweep, bool) {
	id := r.PathValue("id")
	now := h.opts.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.touchWorkerLocked(r, now)
	hs, ok := h.sweeps[id]
	if ok {
		hs.touched = now
	}
	return hs, ok
}

func (h *Hub) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	hs, ok := h.lookup(r)
	if !ok {
		http.Error(w, "unknown sweep", http.StatusNotFound)
		return
	}
	st := hs.coord.Status()
	now := h.opts.Now()
	h.mu.Lock()
	st.ActiveWorkers = h.activeWorkersLocked(now)
	h.mu.Unlock()
	writeJSON(w, st)
}

func (h *Hub) handleCells(w http.ResponseWriter, r *http.Request) {
	hs, ok := h.lookup(r)
	if !ok {
		http.Error(w, "unknown sweep", http.StatusNotFound)
		return
	}
	cells, err := hs.coord.committedCells()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, CellsResponse{Cells: cells})
}

// handleProtocol routes lease/heartbeat/complete to the sweep's ledger.
func (h *Hub) handleProtocol(w http.ResponseWriter, r *http.Request) {
	hs, ok := h.lookup(r)
	if !ok {
		// The sweep is gone — released, aborted, or this hub restarted.
		// 404 tells the worker to drop the cells and re-poll GET /sweep.
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
	h.gcLocked(now)
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
	writeJSON(w, agg)
}

// MemStore is the in-memory Store behind registered sweeps: same dedup
// semantics as serialize.Checkpoint, no file. Results leave through
// GET /sweeps/{id}/cells instead of a checkpoint path.
type MemStore struct {
	mu    sync.Mutex
	cells map[int]json.RawMessage
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore {
	return &MemStore{cells: map[int]json.RawMessage{}}
}

// SetFingerprint implements Store (a memory store has no cross-process
// identity to verify; the hub's content-hash id plays that role).
func (m *MemStore) SetFingerprint(fp string) {}

// Load implements Store.
func (m *MemStore) Load() (map[int]json.RawMessage, error) {
	return m.Cells(), nil
}

// Cells returns a snapshot of the committed cells.
func (m *MemStore) Cells() map[int]json.RawMessage {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]json.RawMessage, len(m.cells))
	for k, v := range m.cells {
		out[k] = v
	}
	return out
}

// StoreDedup implements Store with serialize.Checkpoint's contract: an
// identical duplicate is a no-op, a disagreeing one an error.
func (m *MemStore) StoreDedup(index int, cell json.RawMessage) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if prior, ok := m.cells[index]; ok {
		if string(prior) == string(cell) {
			return false, nil
		}
		return false, fmt.Errorf("coord: cell %d delivered twice with different bytes (determinism violation)", index)
	}
	m.cells[index] = append(json.RawMessage(nil), cell...)
	return true, nil
}

// Flush implements Store (memory is always "durable enough" — the hub's
// recovery story is re-registration + recompute, not disk).
func (m *MemStore) Flush() error { return nil }
