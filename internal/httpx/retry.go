package httpx

import (
	"context"
	"time"
)

// RetryPolicy paces retries of idempotent JSON calls against a peer that
// may be mid-restart: each attempt gets its own timeout, and failed
// attempts back off exponentially with deterministic jitter so a fleet
// of clients does not re-dial a recovering coordinator in lockstep.
// A fleet worker's lease and complete calls run under one of these,
// seeded per worker — a hung peer costs PerTry, never an unbounded
// wait, and the parent context bounds the whole call (cancel the
// request, cancel the retry loop).
//
// The zero value is usable: Do applies the documented defaults.
type RetryPolicy struct {
	// Attempts is the maximum number of tries (default 3).
	Attempts int
	// PerTry bounds each individual attempt (default 2s). Values <= 0
	// leave only the parent context's deadline in force.
	PerTry time.Duration
	// Base is the delay before the second attempt (default 100ms); each
	// further delay doubles, capped at Cap (default 2s).
	Base time.Duration
	// Cap is the backoff ceiling (default 2s).
	Cap time.Duration
	// Jitter widens each delay by a uniform fraction in [0, Jitter)
	// (default 0.25). Negative disables; the stream is seeded by Seed,
	// so a test with a fixed Seed observes fixed delays.
	Jitter float64
	// Seed seeds the jitter stream (default 1).
	Seed uint64
	// Retryable decides whether an error is worth another attempt
	// (default IsConnErr: retry outages, never answers — a 4xx/5xx is
	// the peer's decision, not a transport failure).
	Retryable func(error) bool

	// sleep is a test seam; nil means time.Sleep via a timer that
	// honors ctx.
	sleep func(ctx context.Context, d time.Duration) error
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.PerTry == 0 {
		p.PerTry = 2 * time.Second
	}
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 2 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.25
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Retryable == nil {
		p.Retryable = IsConnErr
	}
	if p.sleep == nil {
		p.sleep = ctxSleep
	}
	return p
}

// Delay returns the backoff before attempt i (0-based: Delay(0) is the
// pause after the first failure): Base·2^i capped at Cap, widened by the
// policy's jitter fraction. Exposed so tests can pin the schedule.
func (p RetryPolicy) Delay(i int) time.Duration {
	p = p.withDefaults()
	d := p.Base
	for ; i > 0 && d < p.Cap; i-- {
		d *= 2
	}
	if d > p.Cap {
		d = p.Cap
	}
	if p.Jitter > 0 {
		// splitmix64 over (Seed, attempt) — deterministic per policy, no
		// shared state, so concurrent Do calls never contend.
		u := splitmix64(p.Seed + uint64(i)*0x9e3779b97f4a7c15)
		frac := float64(u>>11) / float64(1<<53)
		d += time.Duration(frac * p.Jitter * float64(d))
	}
	return d
}

// Do runs op with per-attempt timeouts until it succeeds, exhausts
// Attempts, returns a non-retryable error, or ctx is cancelled. The last
// error is returned unwrapped so callers can classify it (IsConnErr,
// StatusError); ctx cancellation wins over a retryable failure.
func (p RetryPolicy) Do(ctx context.Context, op func(ctx context.Context) error) error {
	p = p.withDefaults()
	var err error
	for i := 0; i < p.Attempts; i++ {
		if i > 0 {
			if serr := p.sleep(ctx, p.Delay(i-1)); serr != nil {
				return err // cancelled mid-backoff: report the last real failure
			}
		}
		attempt := ctx
		cancel := context.CancelFunc(func() {})
		if p.PerTry > 0 {
			attempt, cancel = context.WithTimeout(ctx, p.PerTry)
		}
		err = op(attempt)
		cancel()
		if err == nil || !p.Retryable(err) {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
	}
	return err
}

func ctxSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
