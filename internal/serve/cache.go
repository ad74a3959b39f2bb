package serve

import (
	"sync"

	"saga/internal/graph"
	"saga/internal/scheduler"
)

// cacheEntry is one cached instance plus the scratches whose tables are
// currently built for it. The instance is shared by every request that
// hits the entry and is strictly read-only from then on — scheduling
// never mutates an instance, and the robustness driver jitters copies —
// so concurrent requests may hold the same pointer. The scratch list is
// the part that makes a cache hit skip graph.Tables builds: a scratch
// parked here was released by a request that scheduled this exact
// instance pointer, so Scratch.Tables recognizes it and serves the
// prebuilt tables (and with them every memoized rank vector).
type cacheEntry struct {
	key       cacheKey
	inst      *graph.Instance
	scratches []*scheduler.Scratch
	lastUsed  uint64
}

// instanceCache maps the content hash of a submitted instance to its
// parsed, validated form. Keys hash the whitespace-stripped payload
// (plus the import knobs for WfCommons submissions; see cacheKey), so
// repeated submissions of the same payload — the "millions of users
// resubmitting the same workflow" case the daemon exists for — parse
// and build tables once.
// Eviction is least-recently-used over a fixed entry budget.
type instanceCache struct {
	mu      sync.Mutex
	cap     int
	maxPark int // scratches parked per entry
	clock   uint64
	entries map[cacheKey]*cacheEntry

	hits, misses, evictions, tableReuses uint64
}

func newInstanceCache(capEntries, maxPark int) *instanceCache {
	if capEntries < 1 {
		capEntries = 1
	}
	if maxPark < 1 {
		maxPark = 1
	}
	return &instanceCache{cap: capEntries, maxPark: maxPark, entries: map[cacheKey]*cacheEntry{}}
}

// lookup returns the cached entry for key, or nil. On a hit it also
// leases a parked scratch when one is available; scr is non-nil only on
// a hit, and its tables are already built for entry.inst.
func (c *instanceCache) lookup(key cacheKey) (entry *cacheEntry, scr *scheduler.Scratch) {
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
	if n := len(e.scratches); n > 0 {
		scr = e.scratches[n-1]
		e.scratches = e.scratches[:n-1]
		c.tableReuses++
	}
	return e, scr
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
		c.evictions++
		// The victim's parked scratches are simply dropped from the entry;
		// they were only a table-reuse fast path, and any still-leased
		// scratch returns through release, which tolerates a gone entry.
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

func (c *instanceCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:     len(c.entries),
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		TableReuses: c.tableReuses,
	}
}
