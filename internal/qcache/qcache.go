// Package qcache is a content-addressed LRU cache for compiled-query
// artifacts, with single-flight deduplication of concurrent compiles.
//
// Keys are the full identity of a compilation (DESIGN.md §7): the query
// fingerprint (hash + canonical text, so hash collisions cannot alias
// artifacts), a digest of the compiler options, the catalog version the
// plan was bound against, the staleness generation, and the
// materialized-view generation. Values are opaque to the cache; the engine stores
// *engine.Compiled.
//
// Single-flight: when N goroutines ask for the same absent key, exactly
// one runs the compute function while the rest block on the entry's ready
// channel and then share the result. Failed computes are never cached —
// every waiter observes the leader's error, and the next request retries.
package qcache

import (
	"container/list"
	"sync"
)

// Key identifies one compiled artifact.
type Key struct {
	// Fingerprint is the normalized query text's 64-bit hash; Canon is
	// the text itself, carried to make equality exact under hash
	// collisions.
	Fingerprint uint64
	Canon       string
	// Options is the compiler-options digest (engine.Options.Digest).
	Options uint64
	// Catalog is the catalog version the plan binds against.
	Catalog uint64
	// Generation is the fingerprint's staleness generation: 0 until
	// adaptive execution first finds the served plan stale (observed
	// cardinalities that change it, or row-count drift), bumped on each
	// such finding.
	Generation uint64
	// View is the materialized-view generation the statement was
	// rewritten (or not rewritten) under: it changes exactly when the
	// set of registered views changes — a new view can newly subsume a
	// cached statement, a dropped one can orphan its rewrite. View
	// refreshes do NOT bump it: refreshes are epoch appends, freshness
	// is decided per execution against the bound snapshot, and keeping
	// the generation stable is what keeps artifacts warm across
	// incremental refresh (the qcache key contract of DESIGN.md §6).
	View uint64
}

// Stats counts cache traffic. Reads are only consistent via Cache.Stats.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Invalidations counts entries dropped by Invalidate (e.g. a stale
	// generation), as opposed to capacity evictions.
	Invalidations uint64
}

// entry is one cache slot. A pending entry (ready still open) is owned by
// the computing leader and is not on the LRU list — it cannot be evicted,
// only invalidated (dropped=true tells the leader not to publish).
type entry[V any] struct {
	key     Key
	val     V
	err     error
	ready   chan struct{}
	elem    *list.Element // nil while pending
	dropped bool
}

// Cache is a fixed-capacity LRU of compiled artifacts. The zero value is
// unusable; call New.
type Cache[V any] struct {
	mu    sync.Mutex
	cap   int
	m     map[Key]*entry[V]
	lru   *list.List // front = most recent; stores *entry[V]
	stats Stats
}

// New creates a cache holding at most capacity resolved entries.
// capacity < 1 is clamped to 1.
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{cap: capacity, m: map[Key]*entry[V]{}, lru: list.New()}
}

// GetOrCompute returns the cached value for k, or runs compute to fill
// it. The boolean reports a cache hit (true only when no compute ran on
// behalf of this caller — joining an in-flight compute counts as a miss,
// since the caller pays the compile latency). compute runs without the
// cache lock held.
func (c *Cache[V]) GetOrCompute(k Key, compute func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if e, ok := c.m[k]; ok {
		if e.elem != nil { // resolved
			c.lru.MoveToFront(e.elem)
			c.stats.Hits++
			c.mu.Unlock()
			return e.val, true, nil
		}
		// Pending: join the in-flight compute.
		c.stats.Misses++
		c.mu.Unlock()
		<-e.ready
		return e.val, false, e.err
	}
	e := &entry[V]{key: k, ready: make(chan struct{})}
	c.m[k] = e
	c.stats.Misses++
	c.mu.Unlock()

	v, err := compute()

	c.mu.Lock()
	e.val, e.err = v, err
	if err != nil || e.dropped {
		delete(c.m, k)
	} else {
		e.elem = c.lru.PushFront(e)
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
	return v, false, err
}

// Get returns the cached value for k without computing.
func (c *Cache[V]) Get(k Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok && e.elem != nil {
		c.lru.MoveToFront(e.elem)
		c.stats.Hits++
		return e.val, true
	}
	c.stats.Misses++
	var zero V
	return zero, false
}

// Invalidate removes every entry whose key matches pred. Pending entries
// are marked dropped: the in-flight compute finishes and returns its
// value to waiters but does not publish into the cache.
func (c *Cache[V]) Invalidate(pred func(Key) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, e := range c.m {
		if !pred(k) {
			continue
		}
		if e.elem == nil {
			e.dropped = true
			continue
		}
		c.lru.Remove(e.elem)
		delete(c.m, k)
		c.stats.Invalidations++
		n++
	}
	return n
}

// Len returns the number of resolved entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// evictLocked drops least-recently-used resolved entries beyond capacity.
func (c *Cache[V]) evictLocked() {
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		e := back.Value.(*entry[V])
		c.lru.Remove(back)
		delete(c.m, e.key)
		c.stats.Evictions++
	}
}
