package serve

import (
	"sync"
	"sync/atomic"

	"saga/internal/graph"
	"saga/internal/scheduler"
)

// cacheEntry is one cached instance plus the scratches whose tables are
// currently built for it and the /v1/schedule answers already given for
// it. The instance is shared by every request that hits the entry and is
// strictly read-only from then on — scheduling never mutates an
// instance, and the robustness driver jitters copies — so concurrent
// requests may hold the same pointer. The scratch list is the part that
// makes a cache hit skip graph.Tables builds: a scratch parked here was
// released by a request that scheduled this exact instance pointer, so
// Scratch.Tables recognizes it and serves the prebuilt tables (and with
// them every memoized rank vector). The responses make a repeat hit skip
// the scheduler and the encoder too: each holds the complete response
// body one scheduler's request produced on this instance, and is exactly
// what a fresh call would write, since every registered scheduler is a
// deterministic function of the instance and results do not depend on
// the scratch (ARCHITECTURE invariants 3 and 6). There is at most one
// per registered scheduler name, each O(|T|) bytes, and they go with the
// entry when it is evicted, their body keys with them.
type cacheEntry struct {
	key       cacheKey
	inst      *graph.Instance
	scratches []*scheduler.Scratch
	responses []storedResponse
	lastUsed  uint64
}

// storedResponse is one scheduler's /v1/schedule response body for the
// entry's instance; body is never written after it is stored. raw is
// the SHA-256 of the exact request body whose scheduling hit stored it,
// the response's key in instanceCache.bodies.
type storedResponse struct {
	scheduler string
	raw       bodyKey
	body      []byte
}

// indexedResponse is what instanceCache.bodies maps a request body's
// key to: the entry that stored the response, and the response.
type indexedResponse struct {
	entry *cacheEntry
	body  []byte
}

func (e *cacheEntry) response(name string) []byte {
	for _, r := range e.responses {
		if r.scheduler == name {
			return r.body
		}
	}
	return nil
}

// instanceCache maps the content hash of a submitted instance to its
// parsed, validated form. Keys hash the whitespace-stripped payload
// (plus the import knobs for WfCommons submissions; see cacheKey), so
// repeated submissions of the same payload — the "millions of users
// resubmitting the same workflow" case the daemon exists for — parse
// and build tables once.
// Eviction is least-recently-used over a fixed entry budget, and hands
// the victim's parked scratches back to the pool: on traffic that never
// repeats an instance, every entry is evicted with the scratch its miss
// parked, and the next miss leases that scratch instead of growing a
// new one. Reuse is safe because a scratch's memo state is keyed by
// instance pointer and table generation (scheduler.ScratchPool).
//
// bodies indexes every stored response by the SHA-256 of the request
// body that stored it, so a byte-identical request is answered without
// scanning its envelope: the same bytes are the same envelope, which was
// accepted once. It holds exactly one key per stored response in a live
// entry; nBodies mirrors its length for the lock-free check that spares
// a request the hash while nothing is stored.
type instanceCache struct {
	mu      sync.Mutex
	cap     int
	maxPark int // scratches parked per entry
	pool    *scheduler.ScratchPool
	clock   uint64
	entries map[cacheKey]*cacheEntry
	bodies  map[bodyKey]indexedResponse
	nBodies atomic.Int64

	hits, misses, evictions, tableReuses, responseHits, bodyHits uint64
}

func newInstanceCache(capEntries, maxPark int, pool *scheduler.ScratchPool) *instanceCache {
	if capEntries < 1 {
		capEntries = 1
	}
	if maxPark < 1 {
		maxPark = 1
	}
	return &instanceCache{cap: capEntries, maxPark: maxPark, pool: pool, entries: map[cacheKey]*cacheEntry{}, bodies: map[bodyKey]indexedResponse{}}
}

// indexed reports whether any response is stored, that is, whether a
// request body is worth hashing for answer.
func (c *instanceCache) indexed() bool { return c.nBodies.Load() > 0 }

// answer returns the response stored under raw, the SHA-256 of a
// request body, or nil. A match counts as a hit answered with a stored
// response, like one lookup finds.
func (c *instanceCache) answer(raw bodyKey) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.bodies[raw]
	if !ok {
		return nil
	}
	c.hits++
	c.responseHits++
	c.bodyHits++
	c.clock++
	r.entry.lastUsed = c.clock
	return r.body
}

// lookup returns the cached entry for key, or nil. On a hit it returns
// the response stored for the named scheduler when there is one, and
// otherwise leases a parked scratch when one is available; scr is
// non-nil only on a hit, and its tables are already built for
// entry.inst.
func (c *instanceCache) lookup(key cacheKey, name string) (entry *cacheEntry, stored []byte, scr *scheduler.Scratch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, nil, nil
	}
	c.hits++
	c.clock++
	e.lastUsed = c.clock
	if stored = e.response(name); stored != nil {
		c.responseHits++
		return e, stored, nil
	}
	if n := len(e.scratches); n > 0 {
		scr = e.scratches[n-1]
		e.scratches = e.scratches[:n-1]
		c.tableReuses++
	}
	return e, nil, scr
}

// insert adds inst under key, evicting the least-recently-used entry
// when the cache is full and returning its parked scratches to the
// pool. If another request raced the parse and inserted first, the
// winner's entry is returned so both requests share one instance
// pointer.
func (c *instanceCache) insert(key cacheKey, inst *graph.Instance) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.clock++
		e.lastUsed = c.clock
		return e
	}
	for len(c.entries) >= c.cap {
		var victim *cacheEntry
		for _, e := range c.entries {
			if victim == nil || e.lastUsed < victim.lastUsed {
				victim = e
			}
		}
		delete(c.entries, victim.key)
		for _, r := range victim.responses {
			delete(c.bodies, r.raw)
		}
		c.nBodies.Store(int64(len(c.bodies)))
		c.evictions++
		// The victim's stored responses go with it; its parked scratches
		// go back to the pool, and any still-leased scratch returns
		// through release, which tolerates a gone entry.
		for _, scr := range victim.scratches {
			c.pool.Put(scr)
		}
	}
	c.clock++
	e := &cacheEntry{key: key, inst: inst, lastUsed: c.clock}
	c.entries[key] = e
	return e
}

// release parks a scratch whose tables are built for entry.inst, so the
// next hit on the entry schedules without a table rebuild. When the
// entry was evicted while the request ran, or the park budget is full,
// ok is false and the caller sends the scratch back to the global pool.
func (c *instanceCache) release(entry *cacheEntry, scr *scheduler.Scratch) (ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[entry.key] != entry || len(entry.scratches) >= c.maxPark {
		return false
	}
	entry.scratches = append(entry.scratches, scr)
	return true
}

// store keeps a copy of body as the named scheduler's response for
// entry.inst, so the next hit for the pair writes it without
// scheduling, and indexes it under raw, the SHA-256 of the request body
// that produced it. An entry that was evicted meanwhile, or that already
// holds the pair's response (a concurrent request stored the same bytes
// first), is left as it is.
func (c *instanceCache) store(entry *cacheEntry, name string, raw bodyKey, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[entry.key] != entry || entry.response(name) != nil {
		return
	}
	body = append([]byte(nil), body...)
	entry.responses = append(entry.responses, storedResponse{scheduler: name, raw: raw, body: body})
	c.bodies[raw] = indexedResponse{entry: entry, body: body}
	c.nBodies.Store(int64(len(c.bodies)))
}

func (c *instanceCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:      len(c.entries),
		Hits:         c.hits,
		Misses:       c.misses,
		Evictions:    c.evictions,
		TableReuses:  c.tableReuses,
		ResponseHits: c.responseHits,
		BodyHits:     c.bodyHits,
	}
}
