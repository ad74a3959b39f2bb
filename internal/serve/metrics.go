package serve

import (
	"sync"
	"time"
)

// latencyBuckets is the number of power-of-two microsecond histogram
// buckets: bucket i counts requests with latency < 2^i microseconds,
// the last bucket is the overflow. 2^26 µs ≈ 67 s, far beyond any
// admission-timeout-bounded request.
const latencyBuckets = 27

// endpointMetrics is one endpoint's counters. Latencies go into a
// fixed-size log2 histogram, so recording is O(1), lock-cheap, and the
// snapshot can answer quantiles without retaining samples.
type endpointMetrics struct {
	count   uint64
	errors  uint64
	buckets [latencyBuckets]uint64
	totalUS uint64
	phases  PhaseStats
}

func (m *endpointMetrics) record(d time.Duration, failed bool) {
	m.count++
	if failed {
		m.errors++
	}
	us := uint64(d.Microseconds())
	m.totalUS += us
	b := 0
	for v := us; v > 0 && b < latencyBuckets-1; v >>= 1 {
		b++
	}
	m.buckets[b]++
}

// quantile returns the upper bound (in milliseconds) of the histogram
// bucket where the cumulative count crosses q — an upper estimate with
// at most 2x resolution error, plenty for p50/p99 dashboards.
func (m *endpointMetrics) quantile(q float64) float64 {
	if m.count == 0 {
		return 0
	}
	want := uint64(q * float64(m.count))
	if want < 1 {
		want = 1
	}
	var cum uint64
	for i, n := range m.buckets {
		cum += n
		if cum >= want {
			return float64(uint64(1)<<uint(i)) / 1000.0
		}
	}
	return float64(uint64(1)<<uint(latencyBuckets-1)) / 1000.0
}

// Metrics aggregates the daemon's observability counters. One mutex
// guards everything: request recording is a few integer ops, far off
// the scheduling hot path.
type Metrics struct {
	mu        sync.Mutex
	start     time.Time
	endpoints map[string]*endpointMetrics
	rejected  uint64
	inflight  int

	authRejected uint64
	dispatched   uint64
	dispCanceled uint64
	degraded     map[string]uint64
}

func newMetrics() *Metrics {
	return &Metrics{start: time.Now(), endpoints: map[string]*endpointMetrics{}, degraded: map[string]uint64{}}
}

// endpoint returns the named endpoint's counters; the caller holds mu.
func (m *Metrics) endpoint(name string) *endpointMetrics {
	em := m.endpoints[name]
	if em == nil {
		em = &endpointMetrics{}
		m.endpoints[name] = em
	}
	return em
}

func (m *Metrics) record(endpoint string, d time.Duration, failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.endpoint(endpoint).record(d, failed)
}

// recordPhases adds one answered /v1/schedule request's phase times.
func (m *Metrics) recordPhases(read, scanKey, decode, schedule, encode time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := &m.endpoint("schedule").phases
	p.Count++
	p.ReadNS += uint64(read)
	p.ScanKeyNS += uint64(scanKey)
	p.DecodeNS += uint64(decode)
	p.ScheduleNS += uint64(schedule)
	p.EncodeNS += uint64(encode)
}

func (m *Metrics) reject() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

func (m *Metrics) addInflight(delta int) {
	m.mu.Lock()
	m.inflight += delta
	m.mu.Unlock()
}

func (m *Metrics) authReject() {
	m.mu.Lock()
	m.authRejected++
	m.mu.Unlock()
}

func (m *Metrics) dispatchDone() {
	m.mu.Lock()
	m.dispatched++
	m.mu.Unlock()
}

func (m *Metrics) dispatchDegraded(reason string) {
	m.mu.Lock()
	m.degraded[reason]++
	m.mu.Unlock()
}

func (m *Metrics) dispatchCanceled() {
	m.mu.Lock()
	m.dispCanceled++
	m.mu.Unlock()
}

func (m *Metrics) dispatchSnapshot() (DispatchStats, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := DispatchStats{Dispatched: m.dispatched, Canceled: m.dispCanceled}
	if len(m.degraded) > 0 {
		d.Degraded = make(map[string]uint64, len(m.degraded))
		for k, v := range m.degraded {
			d.Degraded[k] = v
		}
	}
	return d, m.authRejected
}

// EndpointStats is one endpoint's snapshot. Phases is present for the
// schedule endpoint once it has answered a request.
type EndpointStats struct {
	Count  uint64      `json:"count"`
	Errors uint64      `json:"errors"`
	MeanMS float64     `json:"mean_ms"`
	P50MS  float64     `json:"p50_ms"`
	P90MS  float64     `json:"p90_ms"`
	P99MS  float64     `json:"p99_ms"`
	Phases *PhaseStats `json:"phases,omitempty"`
}

// PhaseStats says where the time of the Count answered /v1/schedule
// requests went, in cumulative nanoseconds per step: reading the body,
// scanning the envelope, which parses the payload and hashes it into the
// cache key on the same pass, building and validating the instance from
// what the scan parsed (cache misses only — divide by cache.misses, not
// Count), scheduling (cache lookup and scratch lease included), and
// encoding plus writing the response. A hit answered with
// a stored response spends its schedule phase on the lookup alone and
// its encode phase on the write; when it is found by the hash of its
// body (CacheStats.BodyHits), scan_key is that hash alone. Any other
// request's scan_key includes the hash too while any response is
// stored. What a request
// spends outside these — admission wait, net/http — is the difference
// to the endpoint's mean_ms.
type PhaseStats struct {
	Count      uint64 `json:"count"`
	ReadNS     uint64 `json:"read_ns"`
	ScanKeyNS  uint64 `json:"scan_key_ns"`
	DecodeNS   uint64 `json:"decode_ns"`
	ScheduleNS uint64 `json:"schedule_ns"`
	EncodeNS   uint64 `json:"encode_ns"`
}

// CacheStats is the instance cache's snapshot. ResponseHits counts the
// hits answered with a stored response, which lease no scratch: every
// /v1/schedule request that gets past the cache lookup is either one of
// them or one of the pool's Leases. BodyHits counts those of them found
// by the SHA-256 of the request's exact body, before any envelope scan:
// repeats of the body whose scheduling hit stored the response.
type CacheStats struct {
	Entries      int    `json:"entries"`
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Evictions    uint64 `json:"evictions"`
	ResponseHits uint64 `json:"response_hits"`
	BodyHits     uint64 `json:"body_hits"`
}

// PoolStats is the scratch pool's snapshot.
type PoolStats struct {
	FreshScratches uint64 `json:"fresh_scratches"`
	Leases         uint64 `json:"leases"`
}

// AdmissionStats is the bounded-worker-pool snapshot.
type AdmissionStats struct {
	MaxConcurrent int    `json:"max_concurrent"`
	Inflight      int    `json:"inflight"`
	Rejected      uint64 `json:"rejected"`
}

// DispatchStats is the dispatch snapshot: how many requests were
// answered from fleet-computed cells, how many fell back to local
// execution after being dispatched (keyed by reason — "no-workers",
// "poisoned"), and how many dispatched requests the client abandoned.
type DispatchStats struct {
	Dispatched uint64            `json:"dispatched"`
	Degraded   map[string]uint64 `json:"degraded,omitempty"`
	Canceled   uint64            `json:"canceled"`
}

// MetricsSnapshot is the GET /metrics payload.
type MetricsSnapshot struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	Cache         CacheStats               `json:"cache"`
	Pool          PoolStats                `json:"pool"`
	Admission     AdmissionStats           `json:"admission"`
	Dispatch      DispatchStats            `json:"dispatch"`
	AuthRejected  uint64                   `json:"auth_rejected"`
}

func (m *Metrics) snapshot() (out map[string]EndpointStats, rejected uint64, inflight int, uptime float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out = make(map[string]EndpointStats, len(m.endpoints))
	for name, em := range m.endpoints {
		es := EndpointStats{
			Count:  em.count,
			Errors: em.errors,
			P50MS:  em.quantile(0.50),
			P90MS:  em.quantile(0.90),
			P99MS:  em.quantile(0.99),
		}
		if em.count > 0 {
			es.MeanMS = float64(em.totalUS) / float64(em.count) / 1000.0
		}
		if em.phases.Count > 0 {
			phases := em.phases
			es.Phases = &phases
		}
		out[name] = es
	}
	return out, m.rejected, m.inflight, time.Since(m.start).Seconds()
}
