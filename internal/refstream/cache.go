package refstream

import (
	"fmt"
	"sync"

	"repro/internal/loops"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Cache is a bounded, deduplicating store of captured reference
// streams, keyed by (kernel, clamped problem size) — exactly the pair a
// Stream depends on. It extends the sweep planner's execute-once
// guarantee across independent callers: within one sweep the planner's
// sync.Once already ensures a single capture per group, and the Cache
// gives long-lived consumers (the serving layer, repeated sweeps) the
// same property across requests, so a burst of identical workloads
// costs one capture no matter how it is batched.
//
// Concurrent lookups of the same key share one capture: the first caller
// executes it, the rest block until it resolves. A failed capture is
// not cached — the entry is dropped so a later call retries. Eviction is
// LRU over resolved and in-flight entries alike; evicting an in-flight
// entry never disturbs its waiters (they share the entry directly), it
// only allows a future call to capture afresh.
type Cache struct {
	// Captures counts capture executions and Hits counts lookups served by
	// an existing (resolved or in-flight) entry. Optional: the nil
	// instruments of a disabled obs registry no-op.
	Captures *obs.Counter
	Hits     *obs.Counter

	// Loader, when set, is consulted before executing a capture: a
	// persisted stream for (k, clamped n) short-circuits the execution
	// (and is not counted in Captures). Saver, when set, receives every
	// freshly-executed capture, called by the goroutine that captured
	// after the stream is published to the entry: callers sharing the
	// entry return without waiting for the write. Together they back
	// the cache with a durable tier — internal/refstream/store —
	// without the cache knowing about files. Both must be set before
	// first use and be safe for concurrent calls.
	Loader func(k *loops.Kernel, n int) (*Stream, bool)
	Saver  func(st *Stream)

	mu      sync.Mutex
	entries *lru.Cache[cacheKey, *cacheEntry]
}

type cacheKey struct {
	kernel string
	n      int
}

type cacheEntry struct {
	once sync.Once
	st   *Stream
	err  error
}

// DefaultCacheEntries is the capacity NewCache substitutes for a
// non-positive request: enough for every kernel at a few problem sizes.
const DefaultCacheEntries = 64

// NewCache returns an empty cache bounded to the given number of
// streams (<= 0 selects DefaultCacheEntries).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	return &Cache{entries: lru.New[cacheKey, *cacheEntry](capacity, nil)}
}

// GetScratch returns the reference stream of (k, n), capturing it on
// first use. Safe for concurrent use; concurrent calls for one key
// perform a single capture. The capture — should this call be the one
// to perform it — runs against the caller's reusable simulator scratch
// (see CaptureScratch; nil allocates a fresh one), so a long-lived
// consumer that holds a per-worker scratch pays no fresh kernel-array
// allocations on a miss.
func (c *Cache) GetScratch(sc *sim.Scratch, k *loops.Kernel, n int) (*Stream, error) {
	if k == nil {
		return nil, fmt.Errorf("refstream: nil kernel")
	}
	key := cacheKey{kernel: k.Key, n: k.ClampN(n)}

	c.mu.Lock()
	e, hit := c.entries.Get(key) // resolved, or in flight and about to be shared
	if !hit {
		e = &cacheEntry{}
		c.entries.Add(key, e)
	}
	c.mu.Unlock()
	if hit {
		c.Hits.Inc()
	}

	captured := false
	e.once.Do(func() {
		if c.Loader != nil {
			if st, ok := c.Loader(k, key.n); ok {
				e.st = st
				return
			}
		}
		c.Captures.Inc()
		captured = true
		e.st, e.err = CaptureScratch(sc, k, key.n)
		if e.err != nil {
			// Drop the failed entry (if still ours) so a later call
			// retries instead of replaying a stale error forever.
			c.mu.Lock()
			if cur, ok := c.entries.Peek(key); ok && cur == e {
				c.entries.Remove(key)
			}
			c.mu.Unlock()
		}
	})
	if captured && e.err == nil && c.Saver != nil {
		c.Saver(e.st)
	}
	return e.st, e.err
}
