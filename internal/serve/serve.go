// Package serve is the scheduling-as-a-service daemon behind `saga
// serve`: a long-running HTTP server that accepts a DAG + network (or a
// WfCommons wfformat instance) and answers with a schedule, a portfolio
// recommendation, or a PISA robustness report. The batch CLIs stay
// intact as the library path; `saga schedule/portfolio/robustness
// -server URL` become thin clients of this daemon.
//
// The request path leans on the repo's established ownership rules
// (ARCHITECTURE invariant 8):
//
//   - Per-request Scratch leasing. Every schedule request leases one
//     scheduler.Scratch — from the instance cache when the instance was
//     seen before (tables prebuilt, zero graph.Tables work), else from a
//     sync.Pool — and owns it exclusively until the response is
//     written. Cross-request bleed is impossible by construction: every
//     memoized value in a Scratch is keyed on (instance pointer, table
//     generation).
//   - Content-hash instance caching. Submissions are keyed by the
//     SHA-256 of their whitespace-stripped payload bytes, computed
//     inside the one scan that reads the request envelope (wire.go); a
//     hit shares the parsed instance pointer (read-only from then on)
//     and skips parse, validation, and table builds.
//   - Bounded admission. At most MaxConcurrent requests compute at
//     once; excess requests wait up to QueueTimeout, then are refused
//     with 503 — load sheds at the door instead of thrashing the
//     scheduler.
//   - Observability. GET /metrics reports request counts, latency
//     quantiles, cache hit rates, scratch-pool stats, and admission
//     counters as JSON, and for /v1/schedule where the time went:
//     body read, envelope scan + key, decode, schedule, encode.
//   - The daemon is its fleet's hub. A coord.Hub is served under /hub/
//     (behind the same bearer check, outside admission and the
//     per-endpoint records): `saga worker -coordinator <daemon>/hub
//     -persist` processes attach there, and while any is calling in,
//     portfolio and robustness sweeps are computed by them instead of
//     under an admission slot (dispatch.go, ARCHITECTURE invariant 7).
//
// Responses are byte-identical to direct in-process library calls on
// the same input for all three request kinds — the identity suite and
// the serve-smoke e2e drill both enforce it.
package serve

import (
	"fmt"
	"hash"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"saga/internal/coord"
	"saga/internal/datasets"
	"saga/internal/experiments"
	"saga/internal/graph"
	"saga/internal/httpx"
	"saga/internal/runner"
	"saga/internal/scheduler"
	"saga/internal/serialize"
)

// Options tunes the daemon. The zero value is usable: every field has a
// default.
type Options struct {
	// MaxConcurrent bounds how many requests compute at once (default
	// GOMAXPROCS). Admission is the daemon's only queue; each admitted
	// request runs its experiment with Workers sequential workers.
	MaxConcurrent int
	// QueueTimeout is how long an over-admission request waits for a
	// slot before being refused with 503 (default 2s).
	QueueTimeout time.Duration
	// CacheEntries bounds the instance cache (default 64 entries, LRU).
	CacheEntries int
	// Workers is the runner worker count inside one portfolio or
	// robustness request (default 1: concurrent requests are the
	// parallelism axis; results are identical at any value).
	Workers int
	// MaxRobustnessN caps RobustnessRequest.N (default 100000).
	MaxRobustnessN int
	// MaxPISAIters caps PortfolioRequest.Iters (default 100000).
	MaxPISAIters int
	// DegradeWindow is the dispatch path's one silence budget (default
	// 3s): portfolio and robustness requests are dispatched to the fleet
	// attached under /hub/ iff a worker called in within it, a dispatched
	// sweep falls back to local execution once no worker has for that
	// long, and a lease without a heartbeat is reclaimed after it (see
	// dispatch.go).
	DegradeWindow time.Duration
	// Token, when non-empty, requires `Authorization: Bearer <Token>` on
	// every endpoint except /healthz — the workers' /hub/ calls included;
	// rejected requests are counted in /metrics.
	Token string
	// Logf, when non-nil, receives one line per request.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 2 * time.Second
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 64
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.MaxRobustnessN <= 0 {
		o.MaxRobustnessN = 100000
	}
	if o.MaxPISAIters <= 0 {
		o.MaxPISAIters = 100000
	}
	if o.DegradeWindow <= 0 {
		o.DegradeWindow = 3 * time.Second
	}
	return o
}

// Server is the daemon. It is an http.Handler; serve it wherever
// convenient (net/http behind `saga serve`, httptest in the suites).
type Server struct {
	opts    Options
	pool    scheduler.ScratchPool
	cache   *instanceCache
	metrics *Metrics
	hub     *coord.Hub
	sem     chan struct{}
	leases  atomic.Uint64
	mux     *http.ServeMux
}

// New builds a daemon with the given options.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		cache:   newInstanceCache(opts.CacheEntries, opts.MaxConcurrent),
		metrics: newMetrics(),
		sem:     make(chan struct{}, opts.MaxConcurrent),
		mux:     http.NewServeMux(),
	}
	s.hub = coord.NewHub(coord.HubOptions{
		Sweep:     coord.Options{LeaseTTL: opts.DegradeWindow},
		WorkerTTL: opts.DegradeWindow,
		Logf:      opts.Logf,
	})
	s.mux.HandleFunc("POST /v1/schedule", s.track("schedule", s.handleSchedule))
	s.mux.HandleFunc("POST /v1/portfolio", s.track("portfolio", s.handlePortfolio))
	s.mux.HandleFunc("POST /v1/robustness", s.track("robustness", s.handleRobustness))
	s.mux.Handle("/hub/", http.StripPrefix("/hub", s.hub))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, map[string]bool{"ok": true})
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/healthz" && !httpx.CheckBearer(r, s.opts.Token) {
		s.metrics.authReject()
		http.Error(w, "unauthorized", http.StatusUnauthorized)
		return
	}
	s.mux.ServeHTTP(w, r)
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// statusRecorder lets the admission wrapper see whether the handler
// answered an error status, for the per-endpoint error counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// track wraps a handler with observability: the inflight gauge, the
// per-endpoint count/error/latency record, and the request log line.
// Admission slots are not taken here — handlers call acquire around
// local compute only, so a dispatched request that spends its life
// waiting on the fleet never pins one of the MaxConcurrent compute
// slots.
func (s *Server) track(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.addInflight(1)
		defer s.metrics.addInflight(-1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		d := time.Since(start)
		s.metrics.record(name, d, rec.status != http.StatusOK)
		s.logf("serve: %s %d %s", name, rec.status, d)
	}
}

// acquire takes one of the MaxConcurrent admission slots, waiting at
// most QueueTimeout, refusing with 503 when the daemon is saturated.
// On ok the caller must invoke release exactly once.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
	default:
		t := time.NewTimer(s.opts.QueueTimeout)
		defer t.Stop()
		select {
		case s.sem <- struct{}{}:
		case <-t.C:
			s.metrics.reject()
			http.Error(w, fmt.Sprintf("server saturated: %d requests in flight, none finished within %s",
				s.opts.MaxConcurrent, s.opts.QueueTimeout), http.StatusServiceUnavailable)
			return nil, false
		case <-r.Context().Done():
			s.metrics.reject()
			http.Error(w, "client gave up while queued", http.StatusServiceUnavailable)
			return nil, false
		}
	}
	return func() { <-s.sem }, true
}

// instanceFor resolves a request's instance: cache hit, or decode +
// validate + insert, in which case decode is how long that took. The
// returned scratch is non-nil only on a cache hit that also had a
// parked scratch (tables prebuilt); the caller still owns releasing
// whatever scratch it ends up using.
func (s *Server) instanceFor(w http.ResponseWriter, env *envelope, key cacheKey) (entry *cacheEntry, scr *scheduler.Scratch, decode time.Duration, ok bool) {
	if entry, scr := s.cache.lookup(key); entry != nil {
		return entry, scr, 0, true
	}
	start := time.Now()
	var inst *graph.Instance
	var err error
	if len(env.Instance) > 0 {
		inst, err = serialize.UnmarshalInstance(env.Instance)
	} else {
		// The knobs arrive with their defaults applied (envelope.finish).
		inst, err = datasets.InstanceFromWfC(env.WfC, env.Link, env.CCR, env.Nodes)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad instance: %v", err), http.StatusBadRequest)
		return nil, nil, 0, false
	}
	return s.cache.insert(key, inst), nil, time.Since(start), true
}

// releaseScratch parks the request's scratch with its instance's cache
// entry (so the next hit schedules with prebuilt tables) or, when the
// entry is gone or full, returns it to the global pool.
func (s *Server) releaseScratch(entry *cacheEntry, scr *scheduler.Scratch) {
	if entry != nil && s.cache.release(entry, scr) {
		return
	}
	s.pool.Put(scr)
}

// readEnvelope reads, scans and keys the body of a schedule or
// robustness request, answering 400 (413 for an oversized body) when it
// cannot. arrived is when the body had been read.
func readEnvelope(w http.ResponseWriter, r *http.Request, robustness bool, h hash.Hash) (env envelope, key cacheKey, arrived time.Time, ok bool) {
	body, ok := httpx.ReadBody(w, r)
	if !ok {
		return env, key, arrived, false
	}
	arrived = time.Now()
	env, err := scanEnvelope(body, robustness, h)
	if err == nil {
		key, err = env.finish(h)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return env, key, arrived, false
	}
	return env, key, arrived, true
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	release, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	ws := wirePool.Get().(*wireState)
	defer wirePool.Put(ws)

	// Five clock readings split the request into the phases /metrics
	// reports; a miss takes two more around its decode.
	t0 := time.Now()
	env, key, t1, ok := readEnvelope(w, r, false, ws.h)
	if !ok {
		return
	}
	sched, err := scheduler.New(env.Scheduler)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	t2 := time.Now()
	entry, scr, decode, ok := s.instanceFor(w, &env, key)
	if !ok {
		return
	}
	s.leases.Add(1)
	if scr == nil {
		scr = s.pool.Get()
	}
	defer s.releaseScratch(entry, scr)
	out := scr.AcquireSchedule()
	defer scr.ReleaseSchedule(out)
	if err := sched.ScheduleScratch(entry.inst, scr, out); err != nil {
		http.Error(w, fmt.Sprintf("schedule: %v", err), http.StatusBadRequest)
		return
	}
	t3 := time.Now()
	ws.out, err = appendScheduleResponse(ws.out[:0], sched.Name(), out)
	if err != nil {
		http.Error(w, fmt.Sprintf("encode schedule: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(ws.out)
	t4 := time.Now()
	s.metrics.recordPhases(t1.Sub(t0), t2.Sub(t1), decode, t3.Sub(t2)-decode, t4.Sub(t3))
}

func (s *Server) handlePortfolio(w http.ResponseWriter, r *http.Request) {
	var req PortfolioRequest
	if !httpx.ReadJSON(w, r, &req) {
		return
	}
	if len(req.Schedulers) < 2 || len(req.Schedulers) > 32 {
		http.Error(w, fmt.Sprintf("portfolio needs 2..32 schedulers, got %d", len(req.Schedulers)), http.StatusBadRequest)
		return
	}
	if err := experiments.CheckPortfolioSize(len(req.Schedulers), req.K); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Iters == 0 {
		req.Iters = 250
	}
	if req.Restarts == 0 {
		req.Restarts = 2
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Iters < 0 || req.Iters > s.opts.MaxPISAIters || req.Restarts < 0 || req.Restarts > 100 {
		http.Error(w, fmt.Sprintf("iters %d / restarts %d outside the server's budget (iters ≤ %d, restarts ≤ 100)",
			req.Iters, req.Restarts, s.opts.MaxPISAIters), http.StatusBadRequest)
		return
	}
	// An unknown scheduler is the client's mistake; NewSweep names it.
	if _, err := experiments.NewSweep("pairwise", req.sweepParams()); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	store, cerr := s.dispatch(r, "portfolio", "pairwise", req.sweepParams())
	if cerr != nil {
		http.Error(w, "client canceled", http.StatusServiceUnavailable)
		return
	}
	ro := runner.Options{Workers: s.opts.Workers, Context: r.Context(), Checkpoint: store}
	if store == nil {
		// Local compute holds an admission slot; replaying dispatched
		// cells (store != nil) computes nothing and does not.
		release, ok := s.acquire(w, r)
		if !ok {
			return
		}
		defer release()
	}
	resp, err := Portfolio(req, ro)
	if err != nil {
		if r.Context().Err() != nil {
			http.Error(w, "client canceled", http.StatusServiceUnavailable)
			return
		}
		http.Error(w, fmt.Sprintf("portfolio: %v", err), http.StatusInternalServerError)
		return
	}
	httpx.WriteJSON(w, resp)
}

// sweepParams is the identity of the "pairwise" sweep behind a
// portfolio request: the annealing budget and the roster, in order.
func (req PortfolioRequest) sweepParams() experiments.SweepParams {
	return experiments.SweepParams{Iters: req.Iters, Restarts: req.Restarts, Seed: req.Seed, Schedulers: req.Schedulers}
}

// Portfolio computes a portfolio response in process: the "pairwise"
// sweep over req's schedulers under ro (a store the fleet filled
// replays instead of computing), then the best req.K-subset. A K the
// selector would refuse is refused before any cell runs. It is what
// /v1/portfolio answers and what `saga portfolio` prints without
// -server, so the two cannot differ. req is taken as given; the daemon
// fills its defaults before calling.
func Portfolio(req PortfolioRequest, ro runner.Options) (*PortfolioResponse, error) {
	if err := experiments.CheckPortfolioSize(len(req.Schedulers), req.K); err != nil {
		return nil, err
	}
	sw, err := experiments.NewSweep("pairwise", req.sweepParams())
	if err != nil {
		return nil, err
	}
	res, err := sw.Result(ro)
	if err != nil {
		return nil, err
	}
	grid := res.(*experiments.PairwiseResult)
	p, err := experiments.SelectPortfolio(grid.Schedulers, grid.Ratios, req.K)
	if err != nil {
		return nil, err
	}
	return &PortfolioResponse{Schedulers: grid.Schedulers, Ratios: grid.Ratios, Members: p.Members, WorstRatio: p.WorstRatio}, nil
}

func (s *Server) handleRobustness(w http.ResponseWriter, r *http.Request) {
	ws := wirePool.Get().(*wireState)
	req, key, _, ok := readEnvelope(w, r, true, ws.h)
	wirePool.Put(ws)
	if !ok {
		return
	}
	sched, err := scheduler.New(req.Scheduler)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Sigma == 0 {
		req.Sigma = 0.2
	}
	if req.N == 0 {
		req.N = 100
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if err := experiments.CheckSigma(req.Sigma); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.N < 1 || req.N > s.opts.MaxRobustnessN {
		http.Error(w, fmt.Sprintf("n %d outside [1, %d]", req.N, s.opts.MaxRobustnessN), http.StatusBadRequest)
		return
	}
	entry, scr, _, ok := s.instanceFor(w, &req, key)
	if !ok {
		return
	}
	if scr != nil {
		// The robustness driver owns per-worker scratches internally; a
		// parked scratch stays parked for the schedule path.
		s.releaseScratch(entry, scr)
	}
	// A dispatched robustness sweep is identified by the exact instance
	// bytes. Raw submissions use the client's bytes verbatim; WfC
	// imports re-marshal the parsed instance (float64 JSON round-trips
	// exactly, so the worker's parse is bit-equal to entry.inst).
	instRaw := req.Instance
	if len(instRaw) == 0 && s.hub.ActiveWorkers() > 0 {
		var merr error
		if instRaw, merr = serialize.MarshalInstance(entry.inst); merr != nil {
			instRaw = nil // dispatch impossible; compute locally
		}
	}
	var store runner.Checkpoint
	if len(instRaw) > 0 {
		var cerr error
		store, cerr = s.dispatch(r, "robustness", "robustness", experiments.SweepParams{
			N: req.N, Seed: req.Seed, Scheduler: req.Scheduler, Sigma: req.Sigma, InstanceRaw: instRaw,
		})
		if cerr != nil {
			http.Error(w, "client canceled", http.StatusServiceUnavailable)
			return
		}
	}
	ro := runner.Options{Workers: s.opts.Workers, Context: r.Context(), Checkpoint: store}
	if store == nil {
		release, ok := s.acquire(w, r)
		if !ok {
			return
		}
		defer release()
	}
	res, err := experiments.RobustnessRun(entry.inst, sched, req.Sigma, req.N, req.Seed, ro)
	if err != nil {
		if r.Context().Err() != nil {
			http.Error(w, "client canceled", http.StatusServiceUnavailable)
			return
		}
		http.Error(w, fmt.Sprintf("robustness: %v", err), http.StatusBadRequest)
		return
	}
	httpx.WriteJSON(w, RobustnessResponse{
		Scheduler: res.Scheduler,
		Nominal:   res.Nominal,
		Static:    res.Static,
		Adaptive:  res.Adaptive,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	endpoints, rejected, inflight, uptime := s.metrics.snapshot()
	dispatch, authRejected := s.metrics.dispatchSnapshot()
	httpx.WriteJSON(w, MetricsSnapshot{
		UptimeSeconds: uptime,
		Endpoints:     endpoints,
		Cache:         s.cache.stats(),
		Pool: PoolStats{
			FreshScratches: s.pool.Fresh(),
			Leases:         s.leases.Load(),
		},
		Admission: AdmissionStats{
			MaxConcurrent: s.opts.MaxConcurrent,
			Inflight:      inflight,
			Rejected:      rejected,
		},
		Dispatch:     dispatch,
		AuthRejected: authRejected,
	})
}
