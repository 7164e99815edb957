package cache

import (
	"testing"
	"testing/quick"
)

func page(vals ...float64) []float64 { return vals }

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, 32, LRU); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := New(256, 0, LRU); err == nil {
		t.Error("zero page size accepted")
	}
	if _, err := New(256, 32, Policy(99)); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestFrameCount(t *testing.T) {
	// Paper: 256-element cache. ps 32 -> 8 frames, ps 64 -> 4 frames.
	cases := []struct{ capElems, ps, want int }{
		{256, 32, 8},
		{256, 64, 4},
		{256, 256, 1},
		{256, 512, 0}, // page too large: no frames
		{0, 32, 0},    // no cache
	}
	for _, cse := range cases {
		c, err := New(cse.capElems, cse.ps, LRU)
		if err != nil {
			t.Fatal(err)
		}
		if c.maxPages != cse.want {
			t.Errorf("cap=%d ps=%d frames=%d, want %d", cse.capElems, cse.ps, c.maxPages, cse.want)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c, _ := New(64, 2, LRU)
	k := Key{Array: 1, Page: 3}
	if _, out := c.Lookup(k, 0); out != Miss {
		t.Fatalf("first lookup = %v, want Miss", out)
	}
	c.Insert(k, page(1.5, 2.5), nil)
	v, out := c.Lookup(k, 1)
	if out != Hit || v != 2.5 {
		t.Errorf("lookup = (%v,%v), want (2.5,Hit)", v, out)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Inserts != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPartialMissAndRefresh(t *testing.T) {
	c, _ := New(64, 2, LRU)
	k := Key{Array: 0, Page: 0}
	c.Insert(k, page(7, 0), []bool{true, false})
	if v, out := c.Lookup(k, 0); out != Hit || v != 7 {
		t.Errorf("defined cell = (%v,%v)", v, out)
	}
	if _, out := c.Lookup(k, 1); out != PartialMiss {
		t.Errorf("undefined cell outcome = %v, want PartialMiss", out)
	}
	// Re-fetch delivers a fuller snapshot; same key refreshes in place.
	c.Insert(k, page(7, 8), nil)
	if v, out := c.Lookup(k, 1); out != Hit || v != 8 {
		t.Errorf("after refresh = (%v,%v)", v, out)
	}
	s := c.Stats()
	if s.PartialMisses != 1 || s.Refreshes != 1 || s.Inserts != 1 {
		t.Errorf("stats = %+v", s)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1 (refresh must not duplicate)", c.Len())
	}
}

func TestMergeIsMonotone(t *testing.T) {
	c, _ := New(64, 4, LRU)
	k := Key{Array: 0, Page: 0}
	c.Insert(k, page(1, 2, 0, 0), []bool{true, true, false, false})
	// A stale snapshot (fewer defined cells, different junk in the
	// undefined slots) must never erase what the cache already holds.
	c.Merge(k, page(1, 99, 99, 0), []bool{true, false, false, false})
	if v, out := c.Lookup(k, 1); out != Hit || v != 2 {
		t.Errorf("stale merge clobbered defined cell: (%v,%v)", v, out)
	}
	// A fresher snapshot adds its newly defined cells.
	c.Merge(k, page(1, 2, 3, 0), []bool{true, true, true, false})
	if v, out := c.Lookup(k, 2); out != Hit || v != 3 {
		t.Errorf("merge did not add cell: (%v,%v)", v, out)
	}
	if _, out := c.Lookup(k, 3); out != PartialMiss {
		t.Errorf("never-defined cell outcome = %v, want PartialMiss", out)
	}
	// Completing the page collapses to the fully-defined fast path.
	c.Merge(k, page(1, 2, 3, 4), nil)
	if v, out := c.Lookup(k, 3); out != Hit || v != 4 {
		t.Errorf("completing merge = (%v,%v)", v, out)
	}
	// Merging into a fully defined page is a no-op.
	c.Merge(k, page(9, 9, 9, 9), nil)
	if v, _ := c.Lookup(k, 0); v != 1 {
		t.Errorf("merge into complete page overwrote: %v", v)
	}
	// Merging an absent page inserts it.
	k2 := Key{Array: 0, Page: 1}
	c.Merge(k2, page(5, 0, 0, 0), []bool{true, false, false, false})
	if v, out := c.Lookup(k2, 0); out != Hit || v != 5 {
		t.Errorf("merge of absent page = (%v,%v)", v, out)
	}
}

func TestNormalizeAllTrueDefined(t *testing.T) {
	c, _ := New(64, 2, LRU)
	k := Key{}
	c.Insert(k, page(1, 2), []bool{true, true})
	if _, out := c.Lookup(k, 1); out != Hit {
		t.Errorf("all-true defined snapshot outcome = %v", out)
	}
}

func TestInsertMismatchedDefinedPanics(t *testing.T) {
	c, _ := New(64, 2, LRU)
	defer func() {
		if recover() == nil {
			t.Error("mismatched defined slice accepted")
		}
	}()
	c.Insert(Key{}, page(1, 2), []bool{true})
}

func TestLRUEviction(t *testing.T) {
	c, _ := New(4, 2, LRU) // 2 frames
	k1, k2, k3 := Key{Page: 1}, Key{Page: 2}, Key{Page: 3}
	c.Insert(k1, page(1, 1), nil)
	c.Insert(k2, page(2, 2), nil)
	// Touch k1 so k2 becomes LRU.
	if _, out := c.Lookup(k1, 0); out != Hit {
		t.Fatal("k1 should be cached")
	}
	c.Insert(k3, page(3, 3), nil)
	if c.Contains(k2) {
		t.Error("LRU victim should have been k2")
	}
	if !c.Contains(k1) || !c.Contains(k3) {
		t.Error("wrong eviction victim")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestFIFOEvictionIgnoresTouches(t *testing.T) {
	c, _ := New(4, 2, FIFO)
	k1, k2, k3 := Key{Page: 1}, Key{Page: 2}, Key{Page: 3}
	c.Insert(k1, page(1, 1), nil)
	c.Insert(k2, page(2, 2), nil)
	c.Lookup(k1, 0) // FIFO must not promote k1
	c.Insert(k3, page(3, 3), nil)
	if c.Contains(k1) {
		t.Error("FIFO should evict the oldest insert (k1)")
	}
	if !c.Contains(k2) || !c.Contains(k3) {
		t.Error("wrong FIFO victim")
	}
}

func TestClockSecondChance(t *testing.T) {
	c, _ := New(4, 2, Clock)
	k1, k2, k3 := Key{Page: 1}, Key{Page: 2}, Key{Page: 3}
	c.Insert(k1, page(1, 1), nil)
	c.Insert(k2, page(2, 2), nil)
	// Reference both, then insert: clock clears ref bits on first sweep
	// and evicts one of them deterministically without crashing.
	c.Lookup(k1, 0)
	c.Lookup(k2, 0)
	c.Insert(k3, page(3, 3), nil)
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	if !c.Contains(k3) {
		t.Error("new page not inserted")
	}
}

func TestRandomEvictionBounded(t *testing.T) {
	c, _ := New(8, 2, Random)
	for p := 0; p < 100; p++ {
		c.Insert(Key{Page: p}, page(float64(p), 0), nil)
		if c.Len() > 4 {
			t.Fatalf("cache exceeded capacity: %d pages", c.Len())
		}
	}
	if c.Stats().Evictions != 96 {
		t.Errorf("evictions = %d, want 96", c.Stats().Evictions)
	}
}

func TestZeroFrameCacheNeverCaches(t *testing.T) {
	c, _ := New(16, 32, LRU) // frame count 0
	k := Key{Page: 0}
	c.Insert(k, make([]float64, 32), nil)
	if c.Len() != 0 {
		t.Error("zero-frame cache stored a page")
	}
	if _, out := c.Lookup(k, 0); out != Miss {
		t.Error("zero-frame cache claims a hit")
	}
}

func TestKeysRecencyOrder(t *testing.T) {
	c, _ := New(8, 2, LRU)
	c.Insert(Key{Page: 0}, page(0, 0), nil)
	c.Insert(Key{Page: 1}, page(1, 1), nil)
	c.Lookup(Key{Page: 0}, 0) // promote page 0
	keys := c.Keys()
	if len(keys) != 2 || keys[0] != (Key{Page: 0}) || keys[1] != (Key{Page: 1}) {
		t.Errorf("Keys = %v", keys)
	}
}

func TestPolicyAndOutcomeStrings(t *testing.T) {
	if LRU.String() != "lru" || FIFO.String() != "fifo" || Clock.String() != "clock" || Random.String() != "random" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy empty name")
	}
	if Miss.String() != "miss" || Hit.String() != "hit" || PartialMiss.String() != "partial-miss" {
		t.Error("outcome names wrong")
	}
	if Outcome(9).String() == "" {
		t.Error("unknown outcome empty name")
	}
}

func TestPropertyNeverExceedsCapacity(t *testing.T) {
	// Property: for any insert sequence and any policy, the cache never
	// holds more than maxPages pages and repeated lookups of an inserted
	// value are consistent.
	f := func(pages []uint8, policyRaw uint8) bool {
		policy := []Policy{LRU, FIFO, Clock, Random}[int(policyRaw)%4]
		c, err := New(16, 4, policy) // 4 frames
		if err != nil {
			return false
		}
		for _, p := range pages {
			k := Key{Page: int(p % 32)}
			c.Insert(k, []float64{float64(p), 0, 0, 0}, nil)
			if c.Len() > c.maxPages {
				return false
			}
			if v, out := c.Lookup(k, 0); out != Hit || v != float64(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyConservationOfLookups(t *testing.T) {
	// Property: hits + misses + partial-misses equals total lookups.
	f := func(ops []uint16) bool {
		c, _ := New(32, 4, LRU)
		lookups := int64(0)
		for _, op := range ops {
			k := Key{Page: int(op % 16)}
			if op%3 == 0 {
				def := []bool{true, op%2 == 0, true, true}
				c.Insert(k, []float64{1, 2, 3, 4}, def)
			} else {
				c.Lookup(k, int(op%4))
				lookups++
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses+s.PartialMisses == lookups
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
