// Package faultinject misbehaves on purpose: it wraps a worker's HTTP
// transport (and its cell-stored hook) to kill workers mid-lease, drop
// heartbeats so the coordinator reclaims live leases, deliver
// completions twice, and delay requests at random. The coordinator
// protocol (internal/coord) claims all of this is harmless — reclaimed
// cells recompute bit-identically from their position-derived seeds,
// duplicated completions dedup byte-for-byte — and the fault suite uses
// this package to make the protocol prove it: every injected run's
// store must equal the sequential reference exactly.
//
// The package deliberately does not import internal/coord: it speaks
// plain net/http, so it can wrap any client of the protocol (including
// the real saga binary in the end-to-end smoke test's unit-level twin).
package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"saga/internal/rng"
)

// Plan describes one worker's misfortunes. The zero value injects
// nothing.
type Plan struct {
	// Seed drives the random delays. Faults must be reproducible — a
	// failing fault-suite run is only debuggable if its seed replays it.
	Seed uint64
	// DropHeartbeats swallows every POST /heartbeat: the injector
	// fabricates a success answer without forwarding, so the worker
	// believes its lease is safe while the coordinator watches it die.
	DropHeartbeats bool
	// DuplicateCompletions delivers every POST /complete twice, back to
	// back — the retried-delivery case Store's dedup exists for.
	DuplicateCompletions bool
	// MaxDelay, when positive, sleeps a seed-derived random duration in
	// [0, MaxDelay) before forwarding each request, reordering deliveries
	// between workers.
	MaxDelay time.Duration
	// KillAfterCells, when positive, makes the Hook return an error once
	// that many cells have been stored — the worker dies mid-lease
	// without delivering (coord.WorkerOptions.OnCellStored).
	KillAfterCells int
}

// Transport wraps base (nil = http.DefaultTransport) with the plan's
// network faults.
func (p Plan) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	t := &transport{plan: p, base: base}
	if p.MaxDelay > 0 {
		t.rng = rng.New(p.Seed + 1)
	}
	return t
}

// Hook returns a cell-stored hook implementing KillAfterCells, or nil
// when the plan never kills. Wire it into coord.WorkerOptions.
// OnCellStored.
func (p Plan) Hook() func(index int) error {
	if p.KillAfterCells <= 0 {
		return nil
	}
	var mu sync.Mutex
	stored := 0
	return func(index int) error {
		mu.Lock()
		defer mu.Unlock()
		stored++
		if stored >= p.KillAfterCells {
			return fmt.Errorf("faultinject: killed after storing %d cells (at cell %d)", stored, index)
		}
		return nil
	}
}

type transport struct {
	plan Plan
	base http.RoundTripper

	mu  sync.Mutex
	rng *rng.RNG
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.rng != nil {
		t.mu.Lock()
		delay := time.Duration(t.rng.Float64() * float64(t.plan.MaxDelay))
		t.mu.Unlock()
		timer := time.NewTimer(delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	switch {
	case t.plan.DropHeartbeats && strings.HasSuffix(req.URL.Path, "/heartbeat"):
		// Swallow the renewal and forge the acknowledgement the worker
		// expects, so it keeps computing obliviously.
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return fakeOK(req, `{"ok":true}`), nil
	case t.plan.DuplicateCompletions && strings.HasSuffix(req.URL.Path, "/complete"):
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		first := req.Clone(req.Context())
		first.Body = io.NopCloser(bytes.NewReader(body))
		resp, err := t.base.RoundTrip(first)
		if err != nil {
			return resp, err
		}
		// Drain and discard the first answer, then deliver again; the
		// caller sees only the duplicate's response.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		second := req.Clone(req.Context())
		second.Body = io.NopCloser(bytes.NewReader(body))
		return t.base.RoundTrip(second)
	}
	return t.base.RoundTrip(req)
}

// fakeOK fabricates a 200 JSON response without any network round trip.
func fakeOK(req *http.Request, body string) *http.Response {
	return &http.Response{
		Status:     "200 OK",
		StatusCode: http.StatusOK,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(strings.NewReader(body)),
		Request:    req,
	}
}
