package serve

import (
	"sync"
	"sync/atomic"

	"saga/internal/graph"
)

// cacheEntry is one cached instance plus the /v1/schedule answers
// already given for it. The instance is shared by every request that
// hits the entry and is strictly read-only from then on — scheduling
// never mutates an instance — so concurrent requests may hold the same
// pointer. Each response is the complete body one scheduler's request
// produced on this instance, exactly what a fresh call would write
// (ARCHITECTURE invariant 8); there is at most one per registered
// scheduler name, and they go with the entry when it is evicted, their
// body keys with them.
type cacheEntry struct {
	key       cacheKey
	inst      *graph.Instance
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
// repeated submissions of the same payload parse and validate once.
// Eviction is least-recently-used over a fixed entry budget.
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
	clock   uint64
	entries map[cacheKey]*cacheEntry
	bodies  map[bodyKey]indexedResponse
	nBodies atomic.Int64

	hits, misses, evictions, responseHits, bodyHits uint64
}

func newInstanceCache(capEntries int) *instanceCache {
	if capEntries < 1 {
		capEntries = 1
	}
	return &instanceCache{cap: capEntries, entries: map[cacheKey]*cacheEntry{}, bodies: map[bodyKey]indexedResponse{}}
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

// lookup returns the cached entry for key, or nil, and on a hit the
// response stored for the named scheduler, if there is one.
func (c *instanceCache) lookup(key cacheKey, name string) (entry *cacheEntry, stored []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, nil
	}
	c.hits++
	c.clock++
	e.lastUsed = c.clock
	if stored = e.response(name); stored != nil {
		c.responseHits++
	}
	return e, stored
}

// insert adds inst under key, evicting the least-recently-used entry
// when the cache is full. If another request raced the parse and
// inserted first, the winner's entry is returned so both requests share
// one instance pointer.
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
	}
	c.clock++
	e := &cacheEntry{key: key, inst: inst, lastUsed: c.clock}
	c.entries[key] = e
	return e
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
		ResponseHits: c.responseHits,
		BodyHits:     c.bodyHits,
	}
}
