// Package serve is the scheduling-as-a-service daemon behind `saga
// serve`: a long-running HTTP server that accepts a DAG + network (or a
// WfCommons wfformat instance) and answers with a schedule, a portfolio
// recommendation, or a PISA robustness report. The batch CLIs stay
// intact as the library path; `saga schedule/portfolio/robustness
// -server URL` become thin clients of this daemon.
//
// How a request owns its scratch, how instances and answers are cached
// by content and by body, and what the pooled wire state may alias is
// ARCHITECTURE invariant 8. Beyond it:
//
//   - Bounded admission. At most MaxConcurrent requests compute at
//     once; excess requests wait up to QueueTimeout, then are refused
//     with 503 — load sheds at the door instead of thrashing the
//     scheduler.
//   - Observability. GET /metrics reports request counts, latency
//     quantiles, cache hit rates, scratch-pool stats, and admission
//     counters as JSON, and for /v1/schedule where the time went
//     (PhaseStats).
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
	"crypto/sha256"
	"fmt"
	"net/http"
	"path"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"saga/internal/coord"
	"saga/internal/experiments"
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

// maxRobustnessN caps RobustnessRequest.N and maxPISAIters caps
// PortfolioRequest.Iters: one request cannot buy unbounded compute.
const (
	maxRobustnessN = 100000
	maxPISAIters   = 100000
)

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
		metrics: newMetrics(),
		sem:     make(chan struct{}, opts.MaxConcurrent),
		mux:     http.NewServeMux(),
	}
	s.cache = newInstanceCache(opts.CacheEntries)
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
		if s.opts.Logf != nil { // unguarded, the arguments box on every request
			s.logf("serve: %s %d %s", name, rec.status, d)
		}
	}
}

// acquire takes one of the MaxConcurrent admission slots, waiting at
// most QueueTimeout, refusing with 503 when the daemon is saturated.
// When it returns true the caller must invoke release exactly once.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) bool {
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
			return false
		case <-r.Context().Done():
			s.metrics.reject()
			http.Error(w, "client gave up while queued", http.StatusServiceUnavailable)
			return false
		}
	}
	return true
}

// release gives back the admission slot acquire took.
func (s *Server) release() { <-s.sem }

// readEnvelope scans the body of a request with the endpoint's
// envelope e, decoding its payload into ws and keying it into ws.key,
// and answers 400 when it cannot.
func readEnvelope(w http.ResponseWriter, body []byte, e *envelope, ws *wireState) (env RobustnessRequest, ok bool) {
	env, err := scanEnvelope(body, e, ws)
	if err == nil {
		err = env.finish(ws)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return env, false
	}
	return env, true
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if !s.acquire(w, r) {
		return
	}
	defer s.release()

	// The clock readings split an answered request into the phases
	// /metrics reports: t0–t1 reads the body, t1–t2 hashes or scans it,
	// t2–t3 finds or computes the answer (a miss's build is decode within
	// it), and t3 to the end encodes and writes it.
	t0 := time.Now()
	ws := wirePool.Get().(*wireState)
	defer putWire(ws)
	body, ok := httpx.ReadBodyInto(ws.in, w, r)
	if !ok {
		return
	}
	ws.in = body
	t1 := time.Now()
	var (
		answer []byte
		raw    bodyKey
		t2, t3 time.Time
		decode time.Duration
	)
	// While any response is stored, the body's own hash may find one: the
	// body that stored it, repeated byte for byte, needs no scan. Traffic
	// that never repeats stores nothing and hashes nothing here.
	hashed := s.cache.indexed()
	if hashed {
		raw = sha256.Sum256(body)
		t2 = time.Now()
		answer = s.cache.answer(raw)
		t3 = time.Now()
	}
	// Otherwise the scan keys the instance: a hit is answered with the
	// response its entry stored for this scheduler, if any.
	var (
		env   RobustnessRequest
		sched scheduler.Scheduler
		entry *cacheEntry
		err   error
	)
	if answer == nil {
		if env, ok = readEnvelope(w, body, scheduleEnvelope, ws); !ok {
			return
		}
		if sched, err = scheduler.New(env.Scheduler); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		t2 = time.Now()
		entry, answer = s.cache.lookup(ws.key, env.Scheduler)
		t3 = time.Now()
	}
	// Else the request schedules on a pooled scratch, which it holds until
	// its response is written: a hit on its entry's instance, a miss on
	// the instance it builds from the payload the scan decoded and caches.
	if answer == nil {
		hit := entry != nil
		if !hit {
			inst, err := ws.instance(&env)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad instance: %v", err), http.StatusBadRequest)
				return
			}
			entry = s.cache.insert(ws.key, inst)
			decode = time.Since(t3)
		}
		s.leases.Add(1)
		scr := s.pool.Get()
		defer s.pool.Put(scr)
		out := scr.AcquireSchedule()
		defer scr.ReleaseSchedule(out)
		if err := sched.ScheduleScratch(entry.inst, scr, out); err != nil {
			http.Error(w, fmt.Sprintf("schedule: %v", err), http.StatusBadRequest)
			return
		}
		t3 = time.Now()
		if ws.out, err = appendScheduleResponse(ws.out[:0], sched.Name(), out); err != nil {
			http.Error(w, fmt.Sprintf("encode schedule: %v", err), http.StatusInternalServerError)
			return
		}
		// An instance's first sighting stores nothing, so traffic that
		// never repeats an instance pays for no copy and no hash.
		if hit {
			if !hashed {
				raw = sha256.Sum256(body)
			}
			s.cache.store(entry, env.Scheduler, raw, ws.out)
		}
		answer = ws.out
	}
	writeScheduleResponse(w, answer)
	s.metrics.recordPhases(t1.Sub(t0), t2.Sub(t1), decode, t3.Sub(t2)-decode, time.Since(t3))
}

// writeScheduleResponse writes a stored or freshly encoded schedule
// answer with its length: without Content-Length, net/http sends any
// body over its 2 KiB buffer chunked.
func writeScheduleResponse(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

func (s *Server) handlePortfolio(w http.ResponseWriter, r *http.Request) {
	req := portfolioDefaults
	if !httpx.ReadJSON(w, r, &req) {
		return
	}
	if req.Iters > maxPISAIters || req.Restarts > 100 {
		http.Error(w, fmt.Sprintf("iters %d / restarts %d outside the server's budget (iters ≤ %d, restarts ≤ 100)",
			req.Iters, req.Restarts, maxPISAIters), http.StatusBadRequest)
		return
	}
	// A K the selector would refuse is refused first, so it costs no cell.
	if err := experiments.CheckPortfolioSize(len(req.Schedulers), req.K); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	grid, ok := runSweep(s, w, r, experiments.Pairwise, req.sweepParams(), http.StatusInternalServerError)
	if !ok {
		return
	}
	resp, err := req.response(grid)
	if err != nil {
		http.Error(w, fmt.Sprintf("portfolio: %v", err), http.StatusInternalServerError)
		return
	}
	httpx.WriteJSON(w, resp)
}

// runSweep computes sweep d at p for a request and returns its result:
// from the store the attached fleet filled, when it finishes the sweep,
// else in process under an admission slot. When it returns false it has
// answered the request: 400 when d refuses p, 503 when the client is
// gone or the daemon saturated, failStatus when the sweep failed.
func runSweep[T any](s *Server, w http.ResponseWriter, r *http.Request, d experiments.SweepDef[T], p experiments.SweepParams, failStatus int) (T, bool) {
	var zero T
	sw, compute, err := d.Bind(p)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return zero, false
	}
	endpoint := path.Base(r.URL.Path)
	store, err := s.dispatch(r, endpoint, sw.Name, p)
	if err != nil {
		http.Error(w, "client canceled", http.StatusServiceUnavailable)
		return zero, false
	}
	ro := runner.Options{Workers: s.opts.Workers, Context: r.Context(), Checkpoint: store}
	if store == nil {
		// Local compute holds an admission slot; replaying dispatched
		// cells (store != nil) computes nothing and does not.
		if !s.acquire(w, r) {
			return zero, false
		}
		defer s.release()
	}
	res, err := compute(ro)
	if err != nil {
		if r.Context().Err() != nil {
			http.Error(w, "client canceled", http.StatusServiceUnavailable)
		} else {
			http.Error(w, fmt.Sprintf("%s: %v", endpoint, err), failStatus)
		}
		return zero, false
	}
	return res, true
}

// sweepParams is the identity of the "pairwise" sweep behind a
// portfolio request: the annealing budget and the roster, in order.
func (req PortfolioRequest) sweepParams() experiments.SweepParams {
	return experiments.SweepParams{Iters: req.Iters, Restarts: req.Restarts, Seed: req.Seed, Schedulers: req.Schedulers}
}

// response selects the best req.K-subset of the grid the sweep returned.
func (req PortfolioRequest) response(grid *experiments.PairwiseResult) (*PortfolioResponse, error) {
	p, err := experiments.SelectPortfolio(grid.Schedulers, grid.Ratios, req.K)
	if err != nil {
		return nil, err
	}
	return &PortfolioResponse{Schedulers: grid.Schedulers, Ratios: grid.Ratios, Members: p.Members, WorstRatio: p.WorstRatio}, nil
}

// Portfolio computes a portfolio response in process: the "pairwise"
// sweep over req's schedulers under ro, then the best req.K-subset. It
// is what /v1/portfolio answers and what `saga portfolio` prints without
// -server, so the two cannot differ. req is taken as given: no field is
// defaulted.
func Portfolio(req PortfolioRequest, ro runner.Options) (*PortfolioResponse, error) {
	if err := experiments.CheckPortfolioSize(len(req.Schedulers), req.K); err != nil {
		return nil, err
	}
	_, compute, err := experiments.Pairwise.Bind(req.sweepParams())
	if err != nil {
		return nil, err
	}
	grid, err := compute(ro)
	if err != nil {
		return nil, err
	}
	return req.response(grid)
}

func (s *Server) handleRobustness(w http.ResponseWriter, r *http.Request) {
	// The body is not read into ws.in: the sweep's InstanceRaw aliases
	// it, and the hub keeps a sweep's params, serving them to workers,
	// while any request holds the sweep.
	body, ok := httpx.ReadBody(w, r)
	if !ok {
		return
	}
	ws := wirePool.Get().(*wireState)
	defer putWire(ws)
	req, ok := readEnvelope(w, body, robustnessEnvelope, ws)
	if !ok {
		return
	}
	if req.N > maxRobustnessN {
		http.Error(w, fmt.Sprintf("n %d outside the server's budget (n ≤ %d)", req.N, maxRobustnessN), http.StatusBadRequest)
		return
	}
	// The sweep is identified by exact instance bytes: a raw submission
	// by the client's, a wfformat import by the marshaled instance it
	// imports to (float64 JSON round-trips exactly, so the sweep's parse
	// is bit-equal to the import).
	raw := []byte(req.Instance)
	if len(raw) == 0 {
		inst, err := ws.instance(&req)
		if err == nil {
			raw, err = serialize.MarshalInstance(inst)
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("bad instance: %v", err), http.StatusBadRequest)
			return
		}
	}
	p := experiments.SweepParams{N: req.N, Seed: req.Seed, Scheduler: req.Scheduler, Sigma: req.Sigma, InstanceRaw: raw}
	if res, ok := runSweep(s, w, r, experiments.Robustness, p, http.StatusBadRequest); ok {
		httpx.WriteJSON(w, res)
	}
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
