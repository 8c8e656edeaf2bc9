// Package lru is the serving layer's shared plan cache: a size-bounded
// LRU keyed by content-hash strings, with single-flight builds so that
// concurrent requests for the same key share one (expensive) compile
// instead of racing N of them. It backs both `internal/serve`'s
// compiled-plan caches and the replica-side `shard.Catalog`.
//
// The cache stores immutable values (compiled plans are concurrent-safe
// and never mutated), so eviction is purely a residency decision: an
// evicted value that is still referenced by an in-flight request stays
// alive and correct, and a later request for its key simply rebuilds it
// from the same content key — deterministically, by construction of the
// keys (see explore.Keyer: a fingerprint of a canonical binary encoding
// of everything the compile reads).
package lru

import (
	"container/list"
	"fmt"
	"sync"
)

// Stats are the cache's monotone counters. Hits+Misses+Coalesced is the
// total number of GetOrBuild calls; Builds counts builder invocations
// (successful or not); Evictions counts completed entries dropped to
// honour the capacity bound.
type Stats struct {
	// Hits is the number of lookups served from a resident value.
	Hits uint64
	// Misses is the number of lookups that started a build.
	Misses uint64
	// Coalesced is the number of lookups that joined another caller's
	// in-flight build instead of starting their own (the single-flight
	// savings: each one is a compile that did not happen).
	Coalesced uint64
	// Builds is the number of builder invocations (Misses, minus
	// nothing: every miss builds; failed builds are not cached, so a
	// later retry counts as a fresh miss).
	Builds uint64
	// Evictions is the number of completed entries evicted for
	// capacity.
	Evictions uint64
}

// entry is one cache slot. ready is closed when the build completes;
// until then the entry is "in flight": resident in the map (so later
// callers coalesce onto it) but not on the recency list (so it cannot
// be evicted out from under its waiters).
type entry[V any] struct {
	ready chan struct{}
	val   V
	err   error
	elem  *list.Element // nil while in flight or after eviction
}

// Cache is a single-flight LRU from string keys to values of type V.
// All methods are safe for concurrent use. The zero value is not valid;
// use New.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int // <= 0 means unbounded
	entries  map[string]*entry[V]
	recency  *list.List // front = most recent; values are string keys
	stats    Stats
}

// New returns a cache holding at most capacity completed values;
// capacity <= 0 means unbounded. In-flight builds never count against
// the bound (they are pinned until they complete).
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		capacity: capacity,
		entries:  make(map[string]*entry[V]),
		recency:  list.New(),
	}
}

// GetOrBuild returns the value for key, invoking build to create it on
// a miss. Concurrent callers with the same key share a single build:
// exactly one runs the builder (outside the cache lock), the rest block
// until it settles and receive the same value or error. A failed build
// is not cached — every waiter gets the error, the slot is cleared, and
// the next caller retries from scratch. A build that panics settles the
// same way, with an error naming the panic for the waiters, and the
// panic then continues in the caller that ran the build.
func (c *Cache[V]) GetOrBuild(key string, build func() (V, error)) (V, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			// Completed entry: a plain hit.
			c.recency.MoveToFront(e.elem)
			c.stats.Hits++
			c.mu.Unlock()
			return e.val, e.err
		}
		// In flight: join the running build.
		c.stats.Coalesced++
		c.mu.Unlock()
		<-e.ready
		return e.val, e.err
	}
	e := &entry[V]{ready: make(chan struct{})}
	c.entries[key] = e
	c.stats.Misses++
	c.stats.Builds++
	c.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			c.mu.Lock()
			delete(c.entries, key)
			c.mu.Unlock()
			e.err = fmt.Errorf("lru: build of %s panicked: %v", key, r)
			close(e.ready)
			panic(r)
		}
	}()
	e.val, e.err = build()

	c.mu.Lock()
	if e.err != nil {
		delete(c.entries, key)
	} else {
		e.elem = c.recency.PushFront(key)
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
	return e.val, e.err
}

// evictLocked drops least-recently-used completed entries until the
// capacity bound holds. Callers hold c.mu.
func (c *Cache[V]) evictLocked() {
	if c.capacity <= 0 {
		return
	}
	for c.recency.Len() > c.capacity {
		back := c.recency.Back()
		key := back.Value.(string)
		c.recency.Remove(back)
		c.entries[key].elem = nil
		delete(c.entries, key)
		c.stats.Evictions++
	}
}

// Len reports the number of completed resident entries (in-flight
// builds excluded).
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recency.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
