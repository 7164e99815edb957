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
//
// The caller resolves every page to a dense page id before asking, so
// the index is one slice from page id to frame. Values are optional: the
// execution engine (internal/machine) inserts each reply's payload and
// reads hits from it, while the counting simulator (internal/sim)
// inserts nil values, because access classification needs only which
// pages are resident and which of their cells were defined at snapshot
// time. Both run the same replacement code, so they evict in the same
// order on the same reference stream. Frames and their defined-bit
// buffers are recycled on eviction and across Reset calls, so a long
// parameter sweep reaches a zero-allocation steady state.
package cache

import "fmt"

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

// RandomSeed is the generator state of the Random policy on a fresh
// cache; fixed so runs are reproducible and Reset restores a
// fresh-cache state exactly.
const RandomSeed = 0x9e3779b97f4a7c15

// NextRandom advances the Random policy's generator, Marsaglia's 64-bit
// xorshift with the shift triple (13, 7, 17): x ^= x<<13, x ^= x>>7,
// x ^= x<<17. A full cache draws one value per eviction and evicts its
// page of rank value mod resident pages, counted from the most recent.
func NextRandom(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// frame holds one cached page snapshot.
type frame struct {
	page    int32     // dense page id cached in this frame
	index   int32     // this frame's index in Cache.frames
	vals    []float64 // snapshot values; nil in a count-only cache
	defined []bool    // nil means every cell defined; else backed by defBuf
	defBuf  []bool    // retained buffer backing defined, recycled on reuse
	// Intrusive list links (LRU/FIFO order). head side = most recent.
	prev, next *frame
	ref        bool // Clock reference bit
}

func (f *frame) definedAt(off int) bool {
	return f.defined == nil || (off < len(f.defined) && f.defined[off])
}

// snapshot records the defined bits of a page snapshot, collapsing
// fully defined pages to nil (the definedAt fast path) and otherwise
// copying them into the frame's own buffer, so the caller may keep
// mutating its slice.
func (f *frame) snapshot(defined []bool) {
	f.defined = nil
	for _, d := range defined {
		if !d {
			f.defBuf = append(f.defBuf[:0], defined...)
			f.defined = f.defBuf
			return
		}
	}
}

// Cache is a single PE's page cache. Not safe for concurrent use; in the
// execution engine each PE owns exactly one Cache.
type Cache struct {
	maxPages int
	policy   Policy

	// index maps a dense page id to its frame's index in frames, -1
	// when absent. nil when the cache has no frames.
	index  []int32
	frames []*frame
	free   []int32 // indexes of unused frames
	used   int     // resident pages

	// Doubly-linked sentinel list in recency order (head.next = MRU).
	head, tail *frame
	clockHand  *frame
	rng        uint64

	stats Stats
}

// New returns a cache holding capElems elements of pages of pageSize
// elements under the given policy, over a dense page-id space of pages
// pages. A capacity smaller than one page yields a degenerate cache
// that caches nothing (every lookup misses), matching the paper's
// observation that an over-large page size leaves no cache frames.
func New(capElems, pageSize int, policy Policy, pages int) (*Cache, error) {
	c := &Cache{head: &frame{}, tail: &frame{}}
	if err := c.Reset(capElems, pageSize, policy, pages); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate reports the error New returns for these cache parameters,
// without building a cache.
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

// Reset returns the cache to a fresh state under new parameters,
// retaining frame buffers for reuse. It is the sweep engine's per-point
// reset: after the call the cache behaves bit-for-bit like
// New(capElems, pageSize, policy, pages).
func (c *Cache) Reset(capElems, pageSize int, policy Policy, pages int) error {
	if err := Validate(capElems, pageSize, policy); err != nil {
		return err
	}
	if pages < 0 {
		return fmt.Errorf("cache: negative page count %d", pages)
	}
	c.maxPages = capElems / pageSize
	c.policy = policy
	c.stats = Stats{}
	c.head.next = c.tail
	c.tail.prev = c.head
	c.clockHand = nil
	c.rng = RandomSeed
	c.used = 0
	c.free = c.free[:0]
	for i, f := range c.frames {
		f.prev, f.next = nil, nil
		f.vals, f.defined = nil, nil
		f.ref = false
		c.free = append(c.free, int32(i))
	}
	if c.maxPages == 0 || pages == 0 {
		c.index = nil
		return nil
	}
	if cap(c.index) < pages {
		c.index = make([]int32, pages)
	}
	c.index = c.index[:pages]
	for i := range c.index {
		c.index[i] = -1
	}
	return nil
}

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// resident returns the frame caching page, or nil.
func (c *Cache) resident(page int) *frame {
	if c.index == nil || c.index[page] < 0 {
		return nil
	}
	return c.frames[c.index[page]]
}

// Lookup probes the cache for cell off of the page. On Hit the
// snapshot value is returned (0 in a count-only cache). On PartialMiss
// the page is cached but the cell was undefined at snapshot time; the
// caller must re-fetch and call Insert with the fresher snapshot. On
// Miss the page is absent.
func (c *Cache) Lookup(page, off int) (float64, Outcome) {
	f := c.resident(page)
	if f == nil {
		c.stats.Misses++
		return 0, Miss
	}
	if !f.definedAt(off) {
		c.stats.PartialMisses++
		return 0, PartialMiss
	}
	c.touch(f)
	c.stats.Hits++
	var v float64
	if f.vals != nil {
		v = f.vals[off]
	}
	return v, Hit
}

// Insert caches a page snapshot. vals is the page's values, retained by
// the cache (the caller must not mutate it afterwards), or nil in a
// count-only cache. defined is the page's defined bitmap at snapshot
// time, nil for a fully defined page; it is copied, so the caller may
// keep mutating it. When both are given they must be the same length.
// Inserting a resident page refreshes its snapshot in place (the §4
// re-fetch path for partially filled pages). With no frames the call
// is a no-op.
func (c *Cache) Insert(page int, vals []float64, defined []bool) {
	if vals != nil && defined != nil && len(defined) != len(vals) {
		panic(fmt.Sprintf("cache: defined length %d != vals length %d", len(defined), len(vals)))
	}
	if c.index == nil {
		return
	}
	if f := c.resident(page); f != nil {
		f.vals = vals
		f.snapshot(defined)
		c.touch(f)
		c.stats.Refreshes++
		return
	}
	for c.used >= c.maxPages {
		c.evict()
	}
	f := c.takeFrame()
	f.page = int32(page)
	f.vals = vals
	f.snapshot(defined)
	f.ref = true
	c.index[page] = f.index
	c.used++
	c.pushFront(f)
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
// insert as usual. vals and defined cover the same page as the cached
// snapshot. Merge writes only the cache's own copy of the defined bits
// and the values the cache already holds.
func (c *Cache) Merge(page int, vals []float64, defined []bool) {
	f := c.resident(page)
	if f == nil {
		c.Insert(page, vals, defined)
		return
	}
	if f.defined == nil {
		return // cached copy already fully defined: nothing to gain
	}
	for off, d := range f.defined {
		if d || (defined != nil && !defined[off]) {
			continue
		}
		if f.vals != nil {
			f.vals[off] = vals[off]
		}
		f.defined[off] = true
	}
	f.snapshot(f.defined) // collapses to nil once every cell is defined
	c.touch(f)
	c.stats.Refreshes++
}

// Pages returns the resident page ids in recency order (most recent
// first). Intended for tests and diagnostics.
func (c *Cache) Pages() []int {
	pages := make([]int, 0, c.used)
	for f := c.head.next; f != c.tail; f = f.next {
		pages = append(pages, int(f.page))
	}
	return pages
}

// takeFrame returns a recycled frame, or grows the frame pool.
func (c *Cache) takeFrame() *frame {
	if n := len(c.free); n > 0 {
		fi := c.free[n-1]
		c.free = c.free[:n-1]
		return c.frames[fi]
	}
	f := &frame{index: int32(len(c.frames))}
	c.frames = append(c.frames, f)
	return f
}

func (c *Cache) pushFront(f *frame) {
	f.prev = c.head
	f.next = c.head.next
	c.head.next.prev = f
	c.head.next = f
}

func (c *Cache) remove(f *frame) {
	if c.clockHand == f {
		c.clockHand = f.next
	}
	f.prev.next = f.next
	f.next.prev = f.prev
	f.prev, f.next = nil, nil
}

func (c *Cache) touch(f *frame) {
	f.ref = true
	if c.policy != LRU {
		return // FIFO/Clock/Random order is insertion order
	}
	c.remove(f)
	c.pushFront(f)
}

func (c *Cache) evict() {
	var victim *frame
	switch c.policy {
	case LRU, FIFO:
		victim = c.tail.prev
	case Clock:
		victim = c.clockSweep()
	case Random:
		victim = c.randomFrame()
	}
	if victim == nil || victim == c.head || victim == c.tail {
		return
	}
	c.remove(victim)
	c.index[victim.page] = -1
	c.free = append(c.free, victim.index)
	c.used--
	victim.vals, victim.defined = nil, nil
	c.stats.Evictions++
}

func (c *Cache) clockSweep() *frame {
	if c.clockHand == nil || c.clockHand == c.head || c.clockHand == c.tail {
		c.clockHand = c.tail.prev
	}
	for i := 0; i < 2*c.used+2; i++ {
		f := c.clockHand
		if f == c.head || f == c.tail {
			c.clockHand = c.tail.prev
			continue
		}
		if !f.ref {
			return f
		}
		f.ref = false
		c.clockHand = f.prev
		if c.clockHand == c.head {
			c.clockHand = c.tail.prev
		}
	}
	return c.tail.prev
}

func (c *Cache) randomFrame() *frame {
	c.rng = NextRandom(c.rng)
	if c.used == 0 {
		return nil
	}
	skip := int(c.rng % uint64(c.used))
	f := c.head.next
	for i := 0; i < skip && f.next != c.tail; i++ {
		f = f.next
	}
	return f
}
