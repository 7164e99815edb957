package cache

import "fmt"

// Slot-indexed mode. The counting simulator (internal/sim) resolves
// every page to a dense global page id ("slot") at setup time, so the
// per-access map lookup of the Key-based API can be replaced by a
// single slice index. Slot mode is count-only: it tracks which pages
// are resident and which cells were defined at snapshot time — exactly
// what access classification needs — but not the snapshot values, which
// the simulator reads from its ground-truth storage anyway. Frames and
// their defined-bit buffers are recycled on eviction and across
// ReconfigureSlots calls, so a long parameter sweep reaches a
// zero-allocation steady state.
//
// Both modes share the replacement machinery (recency list, clock hand,
// random victim selection), so a slot-mode cache evicts in exactly the
// same order as a Key-mode cache observing the same reference stream.

// RandomSeed is the generator state of the Random policy on a fresh
// cache; fixed so runs are reproducible and ReconfigureSlots restores a
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

// NewSlots returns a count-only cache over a dense page-id space of
// nslots pages. Capacity semantics match New: capElems elements of
// pages of pageSize elements, so capElems/pageSize page frames.
func NewSlots(capElems, pageSize int, policy Policy, nslots int) (*Cache, error) {
	c, err := New(capElems, pageSize, policy)
	if err != nil {
		return nil, err
	}
	if nslots < 0 {
		return nil, fmt.Errorf("cache: negative slot count %d", nslots)
	}
	c.entries = nil // slot mode never uses the map index
	if c.maxPages > 0 && nslots > 0 {
		c.slots = newSlotIndex(nslots)
	}
	return c, nil
}

// ReconfigureSlots resets a slot-mode cache to a fresh-cache state
// under new parameters, retaining frame buffers for reuse. It is the
// sweep engine's per-point reset: after the call the cache behaves
// bit-for-bit like NewSlots(capElems, pageSize, policy, nslots).
func (c *Cache) ReconfigureSlots(capElems, pageSize int, policy Policy, nslots int) error {
	if err := Validate(capElems, pageSize, policy); err != nil {
		return err
	}
	if nslots < 0 {
		return fmt.Errorf("cache: negative slot count %d", nslots)
	}
	c.capElems = capElems
	c.pageSize = pageSize
	c.maxPages = capElems / pageSize
	c.policy = policy
	c.stats = Stats{}
	c.entries = nil
	c.head.next = c.tail
	c.tail.prev = c.head
	c.clockHand = nil
	c.rng = RandomSeed
	c.used = 0
	c.freeFrames = c.freeFrames[:0]
	for i, e := range c.frames {
		e.prev, e.next = nil, nil
		e.defined = nil
		e.ref = false
		c.freeFrames = append(c.freeFrames, int32(i))
	}
	if c.maxPages == 0 || nslots == 0 {
		c.slots = nil
		return nil
	}
	if cap(c.slots) >= nslots {
		c.slots = c.slots[:nslots]
		for i := range c.slots {
			c.slots[i] = -1
		}
	} else {
		c.slots = newSlotIndex(nslots)
	}
	return nil
}

func newSlotIndex(nslots int) []int32 {
	s := make([]int32, nslots)
	for i := range s {
		s[i] = -1
	}
	return s
}

// LookupSlot probes the cache for cell off of the page with dense id
// slot. It is the count-only counterpart of Lookup: outcomes and
// statistics are identical, no snapshot value is returned.
func (c *Cache) LookupSlot(slot, off int) Outcome {
	if c.slots == nil {
		c.stats.Misses++
		return Miss
	}
	fi := c.slots[slot]
	if fi < 0 {
		c.stats.Misses++
		return Miss
	}
	e := c.frames[fi]
	if !e.definedAt(off) {
		c.stats.PartialMisses++
		return PartialMiss
	}
	c.touch(e)
	c.stats.Hits++
	return Hit
}

// InsertSlot caches the page with dense id slot. defined is the
// page's defined bitmap at snapshot time (nil when the caller does not
// model partial fills, meaning every cell is treated as defined); it is
// copied into a recycled buffer, so the caller may keep mutating it.
// Inserting a resident page refreshes its snapshot (the §4 re-fetch
// path). With no frames the call is a no-op.
func (c *Cache) InsertSlot(slot int, defined []bool) {
	if c.slots == nil {
		return
	}
	if fi := c.slots[slot]; fi >= 0 {
		e := c.frames[fi]
		e.snapshotDefined(defined)
		c.touch(e)
		c.stats.Refreshes++
		return
	}
	for c.used >= c.maxPages {
		c.evict()
	}
	e := c.takeFrame()
	e.slot = int32(slot)
	e.snapshotDefined(defined)
	e.ref = true
	c.slots[slot] = e.frame
	c.used++
	c.pushFront(e)
	c.stats.Inserts++
}

// takeFrame returns a recycled frame, or grows the frame pool.
func (c *Cache) takeFrame() *entry {
	if n := len(c.freeFrames); n > 0 {
		fi := c.freeFrames[n-1]
		c.freeFrames = c.freeFrames[:n-1]
		return c.frames[fi]
	}
	e := &entry{frame: int32(len(c.frames))}
	c.frames = append(c.frames, e)
	return e
}

// snapshotDefined records the defined bits of a page snapshot in the
// frame, collapsing fully defined pages to nil (the definedAt fast
// path) and reusing the frame's buffer otherwise.
func (e *entry) snapshotDefined(defined []bool) {
	if defined == nil {
		e.defined = nil
		return
	}
	all := true
	for _, d := range defined {
		if !d {
			all = false
			break
		}
	}
	if all {
		e.defined = nil
		return
	}
	e.defBuf = append(e.defBuf[:0], defined...)
	e.defined = e.defBuf
}
