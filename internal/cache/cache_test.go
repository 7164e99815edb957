package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func page(vals ...float64) []float64 { return vals }

// nPages is the page-id space of the caches under test.
const nPages = 128

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, 32, LRU, nPages); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := New(256, 0, LRU, nPages); err == nil {
		t.Error("zero page size accepted")
	}
	if _, err := New(256, 32, Policy(99), nPages); err == nil {
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
		c, err := New(cse.capElems, cse.ps, LRU, nPages)
		if err != nil {
			t.Fatal(err)
		}
		if c.maxPages != cse.want {
			t.Errorf("cap=%d ps=%d frames=%d, want %d", cse.capElems, cse.ps, c.maxPages, cse.want)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c, _ := New(64, 2, LRU, nPages)
	k := 3
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
	c, _ := New(64, 2, LRU, nPages)
	k := 0
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
	c, _ := New(64, 4, LRU, nPages)
	k := 0
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
	k2 := 1
	c.Merge(k2, page(5, 0, 0, 0), []bool{true, false, false, false})
	if v, out := c.Lookup(k2, 0); out != Hit || v != 5 {
		t.Errorf("merge of absent page = (%v,%v)", v, out)
	}
}

func TestNormalizeAllTrueDefined(t *testing.T) {
	c, _ := New(64, 2, LRU, nPages)
	k := 0
	c.Insert(k, page(1, 2), []bool{true, true})
	if _, out := c.Lookup(k, 1); out != Hit {
		t.Errorf("all-true defined snapshot outcome = %v", out)
	}
}

func TestInsertMismatchedDefinedPanics(t *testing.T) {
	c, _ := New(64, 2, LRU, nPages)
	defer func() {
		if recover() == nil {
			t.Error("mismatched defined slice accepted")
		}
	}()
	c.Insert(0, page(1, 2), []bool{true})
}

func TestLRUEviction(t *testing.T) {
	c, _ := New(4, 2, LRU, nPages) // 2 frames
	k1, k2, k3 := 1, 2, 3
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
	c, _ := New(4, 2, FIFO, nPages)
	k1, k2, k3 := 1, 2, 3
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
	c, _ := New(4, 2, Clock, nPages)
	k1, k2, k3 := 1, 2, 3
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
	c, _ := New(8, 2, Random, nPages)
	for p := 0; p < 100; p++ {
		c.Insert(p, page(float64(p), 0), nil)
		if c.Len() > 4 {
			t.Fatalf("cache exceeded capacity: %d pages", c.Len())
		}
	}
	if c.Stats().Evictions != 96 {
		t.Errorf("evictions = %d, want 96", c.Stats().Evictions)
	}
}

func TestZeroFrameCacheNeverCaches(t *testing.T) {
	c, _ := New(16, 32, LRU, nPages) // frame count 0
	k := 0
	c.Insert(k, make([]float64, 32), nil)
	if c.Len() != 0 {
		t.Error("zero-frame cache stored a page")
	}
	if _, out := c.Lookup(k, 0); out != Miss {
		t.Error("zero-frame cache claims a hit")
	}
}

func TestPagesRecencyOrder(t *testing.T) {
	c, _ := New(8, 2, LRU, nPages)
	c.Insert(0, page(0, 0), nil)
	c.Insert(1, page(1, 1), nil)
	c.Lookup(0, 0) // promote page 0
	pages := c.Pages()
	if len(pages) != 2 || pages[0] != 0 || pages[1] != 1 {
		t.Errorf("Pages = %v", pages)
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
		c, err := New(16, 4, policy, nPages) // 4 frames
		if err != nil {
			return false
		}
		for _, p := range pages {
			k := int(p % 32)
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
		c, _ := New(32, 4, LRU, nPages)
		lookups := int64(0)
		for _, op := range ops {
			k := int(op % 16)
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

// TestCountOnlyMatchesValued drives a count-only cache (nil values) and
// a valued cache with the same reference stream under every policy,
// partially defined pages included, and requires identical outcomes,
// statistics and recency order: the counting simulator and the
// execution engine run one cache. The count-only cache is handed one
// defined slice that the test rewrites before every insert, as the
// simulator rewrites its defined slab in place; the valued cache gets a
// fresh copy each time, so a cache that kept the caller's slice instead
// of copying it would diverge.
func TestCountOnlyMatchesValued(t *testing.T) {
	const (
		nPages   = 40
		pageSize = 8
		capElems = 4 * pageSize // 4 frames
		steps    = 5000
	)
	for _, pol := range []Policy{LRU, FIFO, Clock, Random} {
		t.Run(pol.String(), func(t *testing.T) {
			counted, err := New(capElems, pageSize, pol, nPages)
			if err != nil {
				t.Fatal(err)
			}
			valued, err := New(capElems, pageSize, pol, nPages)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(pol) + 1))
			defined := make([]bool, pageSize)
			for s := 0; s < steps; s++ {
				p := rng.Intn(nPages)
				off := rng.Intn(pageSize)
				_, vOut := valued.Lookup(p, off)
				_, cOut := counted.Lookup(p, off)
				if vOut != cOut {
					t.Fatalf("step %d page %d off %d: valued %v, count-only %v", s, p, off, vOut, cOut)
				}
				if vOut != Hit {
					var def []bool
					if p%2 == 0 { // alternate partially filled pages
						for i := range defined {
							defined[i] = (i+s)%3 != 0
						}
						def = defined
					}
					valued.Insert(p, make([]float64, pageSize), slices.Clone(def))
					counted.Insert(p, nil, def)
				}
			}
			if valued.Stats() != counted.Stats() {
				t.Errorf("stats diverged:\nvalued     %+v\ncount-only %+v", valued.Stats(), counted.Stats())
			}
			if vp, cp := valued.Pages(), counted.Pages(); !slices.Equal(vp, cp) {
				t.Errorf("recency order diverged: valued %v, count-only %v", vp, cp)
			}
		})
	}
}

// TestSnapshotsOwnTheirDefinedBits: after Insert, the caller's defined
// slice is the caller's again. Rewriting it changes no cached snapshot,
// and a Merge adds cells to the cache's copy alone.
func TestSnapshotsOwnTheirDefinedBits(t *testing.T) {
	for _, vals := range [][]float64{nil, page(1, 0, 3, 0)} {
		c, _ := New(64, 4, LRU, nPages)
		def := []bool{true, false, true, false}
		c.Insert(0, vals, def)
		def[1] = true
		if _, out := c.Lookup(0, 1); out != PartialMiss {
			t.Errorf("vals %v: rewritten caller slice changed the snapshot: %v", vals, out)
		}
		c.Merge(0, page(1, 2, 3, 0), []bool{true, true, true, false})
		if def[3] || !def[1] {
			t.Errorf("vals %v: Merge wrote the inserted slice: %v", vals, def)
		}
		if _, out := c.Lookup(0, 1); out != Hit {
			t.Errorf("vals %v: merged cell outcome %v, want Hit", vals, out)
		}
		if _, out := c.Lookup(0, 3); out != PartialMiss {
			t.Errorf("vals %v: never-defined cell outcome %v, want PartialMiss", vals, out)
		}
	}
}

// TestResetRestoresFreshState verifies that a reset cache behaves
// exactly like a newly created one, including the Random policy's
// deterministic seed.
func TestResetRestoresFreshState(t *testing.T) {
	for _, pol := range []Policy{LRU, Random} {
		used, err := New(64, 8, pol, 16)
		if err != nil {
			t.Fatal(err)
		}
		// Dirty it.
		for p := 0; p < 16; p++ {
			used.Lookup(p, 0)
			used.Insert(p, nil, nil)
		}
		if err := used.Reset(32, 4, pol, 24); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(32, 4, pol, 24)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for s := 0; s < 2000; s++ {
			p := rng.Intn(24)
			_, a := used.Lookup(p, rng.Intn(4))
			_, b := fresh.Lookup(p, 0)
			if a != b {
				t.Fatalf("%s: step %d: reset %v, fresh %v", pol, s, a, b)
			}
			if a != Hit {
				used.Insert(p, nil, nil)
				fresh.Insert(p, nil, nil)
			}
		}
		if used.Stats() != fresh.Stats() {
			t.Errorf("%s: stats diverged: %+v vs %+v", pol, used.Stats(), fresh.Stats())
		}
	}
}

// TestCountOnlyNoFrames pins the degenerate no-cache configuration
// of a count-only cache: every lookup misses and inserts are no-ops.
func TestCountOnlyNoFrames(t *testing.T) {
	c, err := New(0, 32, LRU, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, out := c.Lookup(i, 0); out != Miss {
			t.Fatalf("lookup %d: %v, want Miss", i, out)
		}
		c.Insert(i, nil, nil)
	}
	st := c.Stats()
	if st.Misses != 5 || st.Inserts != 0 || c.Len() != 0 {
		t.Errorf("no-frame cache stats %+v len %d", st, c.Len())
	}
}

// TestNextRandomKnownAnswer pins the Random policy's generator: the
// first eight states from RandomSeed under the (13, 7, 17) xorshift,
// computed independently of NextRandom. Every Random eviction in the
// simulator and in replay's policy rows draws from this sequence, so a
// changed shift must fail here, in the generator's own package.
func TestNextRandomKnownAnswer(t *testing.T) {
	want := []uint64{
		0xdc1b77ae0bf34dad,
		0x64f0eeb9026e6076,
		0x7b07ce91e5906136,
		0x305f050c368dcc74,
		0x2ceb16e0a1c54aec,
		0x97101dce4e7bfb79,
		0x9ad2e144d6e8f2cf,
		0xd9aa792e1af470ea,
	}
	x := uint64(RandomSeed)
	for i, w := range want {
		if x = NextRandom(x); x != w {
			t.Fatalf("state %d = %#016x, want %#016x", i+1, x, w)
		}
	}
}
