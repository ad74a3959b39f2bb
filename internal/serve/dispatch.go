package serve

// The dispatch path. The daemon is its own coordinator hub
// (internal/coord.Hub, served under /hub/): while a `saga worker
// -coordinator <daemon>/hub -persist` fleet is attached, portfolio and
// robustness requests are mounted on it as sweeps and computed by the
// fleet, instead of pinning a local admission slot for the whole run.
// The daemon then replays the finished store through the request's own
// Sweep.Result (runSweep; the driver loads every cell from it and
// computes nothing), so a dispatched response is byte-for-byte the local
// response — the dispatch layer can only ever change where cells are
// computed, never what the client reads.
//
// Whether to dispatch is something the hub already measures: a request
// is dispatched iff a worker was heard from within DegradeWindow, so a
// daemon without a fleet computes locally at once. Robustness is
// graceful degradation: a fleet that goes silent mid-sweep, or a sweep
// the fleet cannot finish, falls back to local in-process execution.
// Degradation is logged and counted in /metrics, and is never an error
// to the client. The one failure that propagates is the client's own
// disappearance: cancellation flows from the request context to the hub
// (sweep released → workers' heartbeats answer 404 → leases dropped)
// and the handler unwinds.

import (
	"context"
	"net/http"
	"time"

	"saga/internal/experiments"
	"saga/internal/runner"
)

// dispatch runs the named sweep on the attached fleet and returns the
// store holding every cell, or nil when the handler should compute
// locally (no fleet, or the dispatch side degraded — logged and counted,
// never a client error). The error is non-nil only when the client
// itself is gone.
func (s *Server) dispatch(r *http.Request, endpoint, sweep string, params experiments.SweepParams) (runner.Checkpoint, error) {
	if s.hub.ActiveWorkers() == 0 {
		return nil, nil
	}
	ledger, store, err := s.hub.Acquire(sweep, params)
	if err != nil {
		s.logf("serve: %s: not dispatched: %v; running locally", endpoint, err)
		return nil, nil
	}
	defer s.hub.Release(ledger)
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	finished := make(chan error, 1)
	go func() { finished <- ledger.Wait(ctx.Done()) }()

	alive := time.NewTicker(max(s.opts.DegradeWindow/4, time.Millisecond))
	defer alive.Stop()
	for {
		select {
		case <-ctx.Done():
			// The client disconnected (or its deadline passed); the deferred
			// Release lets the hub reap the leases and workers drop the cells.
			s.metrics.dispatchCanceled()
			s.logf("serve: %s: dispatched sweep canceled by client; released", endpoint)
			return nil, ctx.Err()
		case err := <-finished:
			if err == nil {
				s.metrics.dispatchDone()
				return store, nil
			}
			if ctx.Err() != nil {
				continue // let the ctx.Done branch account for it
			}
			// Some cell fails deterministically (or a worker disagreed with
			// another). Local execution reproduces a failure faithfully — the
			// client gets the same answer a local-only daemon would give.
			s.metrics.dispatchDegraded("poisoned")
			s.logf("serve: %s: dispatch degraded (poisoned): %v; running locally", endpoint, err)
			return nil, nil
		case <-alive.C:
			if s.hub.ActiveWorkers() > 0 {
				continue
			}
			// Nobody has called in for a whole window. Give the cells back and
			// run locally — capacity drought must never become a client error.
			s.metrics.dispatchDegraded("no-workers")
			s.logf("serve: %s: dispatch degraded (no-workers); running locally", endpoint)
			return nil, nil
		}
	}
}
