// Package cache implements the per-PE array page cache of Bic, Nagel &
// Roy (1989) §4. Remote page fetches are cached locally; single
// assignment guarantees a cached page never needs invalidation, so there
// is no coherence traffic. The cache has a fixed capacity in *elements*
// (the paper uses 256), so the number of page frames is capacity divided
// by the page size. The paper uses LRU replacement; FIFO, Clock and
// Random are provided for ablation studies.
//
// A cached page is a snapshot. Under single assignment, cells defined in
// the snapshot are final; cells undefined at snapshot time may have been
// written since, so a hit on such a cell is a partial miss and forces a
// re-fetch of the page (§4 and §8: "a single page might have to be
// fetched more than once if that page is only partially filled at the
// time of the first request").
package cache

import "fmt"

// Key identifies one page of one array.
type Key struct {
	Array int // array identifier, assigned by the caller
	Page  int // page number within the array's linear space
}

// Policy selects the replacement policy.
type Policy int

// Replacement policies.
const (
	LRU Policy = iota // paper's choice
	FIFO
	Clock
	Random
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Clock:
		return "clock"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Outcome classifies a cache lookup.
type Outcome int

// Lookup outcomes.
const (
	Miss        Outcome = iota // page not cached
	Hit                        // page cached and cell defined in snapshot
	PartialMiss                // page cached but cell undefined in snapshot
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case PartialMiss:
		return "partial-miss"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Stats counts cache activity.
type Stats struct {
	Hits          int64 // lookups served from a snapshot
	Misses        int64 // lookups with no cached page
	PartialMisses int64 // cached page lacked the requested cell
	Inserts       int64 // pages inserted
	Refreshes     int64 // snapshot replaced by a fresher copy of same page
	Evictions     int64 // pages displaced by capacity pressure
}

type entry struct {
	key     Key
	vals    []float64
	defined []bool // nil means every cell defined
	// Intrusive list links (LRU/FIFO order). head side = most recent.
	prev, next *entry
	ref        bool // Clock reference bit
	// Slot-mode fields (see slots.go).
	slot   int32  // dense page id currently cached in this frame
	frame  int32  // this frame's index in Cache.frames
	defBuf []bool // retained buffer backing defined, recycled on reuse
}

func (e *entry) definedAt(off int) bool {
	return e.defined == nil || (off < len(e.defined) && e.defined[off])
}

// Cache is a single PE's page cache. Not safe for concurrent use; in the
// execution engine each PE owns exactly one Cache.
type Cache struct {
	capElems int
	pageSize int
	maxPages int
	policy   Policy

	entries map[Key]*entry
	// Doubly-linked sentinel list in recency order (head.next = MRU).
	head, tail *entry
	clockHand  *entry
	rng        uint64

	// Slot-mode index (see slots.go): dense page id -> frame index in
	// frames, -1 when absent. nil in Key mode and in frameless caches.
	slots      []int32
	frames     []*entry
	freeFrames []int32
	used       int // resident pages in slot mode

	stats Stats
}

// New returns a cache holding capElems elements of pages of pageSize
// elements under the given policy. A capacity smaller than one page
// yields a degenerate cache that caches nothing (every lookup misses),
// matching the paper's observation that an over-large page size leaves
// no cache frames.
func New(capElems, pageSize int, policy Policy) (*Cache, error) {
	if err := Validate(capElems, pageSize, policy); err != nil {
		return nil, err
	}
	c := &Cache{
		capElems: capElems,
		pageSize: pageSize,
		maxPages: capElems / pageSize,
		policy:   policy,
		entries:  make(map[Key]*entry),
		rng:      RandomSeed,
	}
	c.head = &entry{}
	c.tail = &entry{}
	c.head.next = c.tail
	c.tail.prev = c.head
	return c, nil
}

// Validate reports the error New returns for these parameters, without
// building a cache.
func Validate(capElems, pageSize int, policy Policy) error {
	if capElems < 0 {
		return fmt.Errorf("cache: negative capacity %d", capElems)
	}
	if pageSize <= 0 {
		return fmt.Errorf("cache: page size must be positive, got %d", pageSize)
	}
	switch policy {
	case LRU, FIFO, Clock, Random:
	default:
		return fmt.Errorf("cache: unknown policy %d", int(policy))
	}
	return nil
}

// Len returns the number of cached pages.
func (c *Cache) Len() int {
	if c.entries == nil {
		return c.used
	}
	return len(c.entries)
}

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Lookup probes the cache for cell off of the keyed page. On Hit the
// snapshot value is returned. On PartialMiss the page is cached but the
// cell was undefined at snapshot time; the caller must re-fetch and call
// Insert with the fresher snapshot. On Miss the page is absent.
func (c *Cache) Lookup(key Key, off int) (float64, Outcome) {
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return 0, Miss
	}
	if !e.definedAt(off) {
		c.stats.PartialMisses++
		return 0, PartialMiss
	}
	c.touch(e)
	c.stats.Hits++
	return e.vals[off], Hit
}

// Insert caches a page snapshot. defined may be nil to indicate a fully
// defined page; otherwise it must parallel vals. Inserting a key that is
// already cached refreshes its snapshot in place (the re-fetch path for
// partially filled pages). If the cache has no frames the call is a
// no-op. The slices are retained by the cache; callers must not mutate
// them afterwards.
func (c *Cache) Insert(key Key, vals []float64, defined []bool) {
	if defined != nil && len(defined) != len(vals) {
		panic(fmt.Sprintf("cache: defined length %d != vals length %d", len(defined), len(vals)))
	}
	if e, ok := c.entries[key]; ok {
		e.vals = vals
		e.defined = normalizeDefined(defined)
		c.touch(e)
		c.stats.Refreshes++
		return
	}
	if c.maxPages == 0 {
		return
	}
	for len(c.entries) >= c.maxPages {
		c.evict()
	}
	e := &entry{key: key, vals: vals, defined: normalizeDefined(defined), ref: true}
	c.entries[key] = e
	c.pushFront(e)
	c.stats.Inserts++
}

// Merge folds a page snapshot into the cache monotonically: cells
// defined in the incoming snapshot are added to the cached copy, and
// cells already defined in the cache are never lost or overwritten.
// Under single assignment a defined cell's value is final, so merging
// snapshots taken at different times is always safe — this is the
// requester-side absorption path for stale or duplicate replies on a
// lossy interconnect, where a late reply may carry an older (more
// sparsely filled) snapshot than the one already cached. Absent pages
// insert as usual. Key mode only (the execution engine's mode); a
// slot-mode cache tracks no values to merge and ignores the call.
func (c *Cache) Merge(key Key, vals []float64, defined []bool) {
	if c.entries == nil {
		return
	}
	e, ok := c.entries[key]
	if !ok {
		c.Insert(key, vals, defined)
		return
	}
	if e.defined == nil {
		return // cached copy already fully defined: nothing to gain
	}
	for off := range e.vals {
		if !e.defined[off] && (defined == nil || (off < len(defined) && defined[off])) && off < len(vals) {
			e.vals[off] = vals[off]
			e.defined[off] = true
		}
	}
	e.defined = normalizeDefined(e.defined)
	c.touch(e)
	c.stats.Refreshes++
}

// normalizeDefined collapses an all-true defined slice to nil so that
// fully defined pages take the fast path in definedAt.
func normalizeDefined(defined []bool) []bool {
	if defined == nil {
		return nil
	}
	for _, d := range defined {
		if !d {
			return defined
		}
	}
	return nil
}

func (c *Cache) pushFront(e *entry) {
	e.prev = c.head
	e.next = c.head.next
	c.head.next.prev = e
	c.head.next = e
}

func (c *Cache) remove(e *entry) {
	if c.clockHand == e {
		c.clockHand = e.next
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (c *Cache) touch(e *entry) {
	e.ref = true
	if c.policy != LRU {
		return // FIFO/Clock/Random order is insertion order
	}
	c.remove(e)
	c.pushFront(e)
}

func (c *Cache) evict() {
	var victim *entry
	switch c.policy {
	case LRU, FIFO:
		victim = c.tail.prev
	case Clock:
		victim = c.clockSweep()
	case Random:
		victim = c.randomEntry()
	}
	if victim == nil || victim == c.head || victim == c.tail {
		return
	}
	c.remove(victim)
	if c.entries != nil {
		delete(c.entries, victim.key)
	} else {
		c.slots[victim.slot] = -1
		c.freeFrames = append(c.freeFrames, victim.frame)
		c.used--
		victim.defined = nil
	}
	c.stats.Evictions++
}

func (c *Cache) clockSweep() *entry {
	if c.clockHand == nil || c.clockHand == c.head || c.clockHand == c.tail {
		c.clockHand = c.tail.prev
	}
	for i := 0; i < 2*c.Len()+2; i++ {
		e := c.clockHand
		if e == c.head || e == c.tail {
			c.clockHand = c.tail.prev
			continue
		}
		if !e.ref {
			return e
		}
		e.ref = false
		c.clockHand = e.prev
		if c.clockHand == c.head {
			c.clockHand = c.tail.prev
		}
	}
	return c.tail.prev
}

func (c *Cache) randomEntry() *entry {
	c.rng = NextRandom(c.rng)
	n := c.Len()
	if n == 0 {
		return nil
	}
	skip := int(c.rng % uint64(n))
	e := c.head.next
	for i := 0; i < skip && e.next != c.tail; i++ {
		e = e.next
	}
	return e
}

// Keys returns the cached page keys in recency order (most recent
// first). Intended for tests and diagnostics. In slot mode the dense
// page id is reported as Key.Page.
func (c *Cache) Keys() []Key {
	keys := make([]Key, 0, c.Len())
	for e := c.head.next; e != c.tail; e = e.next {
		if c.entries == nil {
			keys = append(keys, Key{Page: int(e.slot)})
		} else {
			keys = append(keys, e.key)
		}
	}
	return keys
}
