package cache

import (
	"math/rand"
	"testing"
)

// TestSlotModeMatchesKeyMode drives a Key-mode and a slot-mode cache
// with the same reference stream under every policy and requires
// identical outcomes and statistics: the counting simulator's slot path
// must evict in exactly the same order as the reference implementation.
func TestSlotModeMatchesKeyMode(t *testing.T) {
	const (
		nPages   = 40
		pageSize = 8
		capElems = 4 * pageSize // 4 frames
		steps    = 5000
	)
	for _, pol := range []Policy{LRU, FIFO, Clock, Random} {
		t.Run(pol.String(), func(t *testing.T) {
			km, err := New(capElems, pageSize, pol)
			if err != nil {
				t.Fatal(err)
			}
			sm, err := NewSlots(capElems, pageSize, pol, nPages)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(pol) + 1))
			page := make([]float64, pageSize)
			defined := make([]bool, pageSize)
			for i := range defined {
				defined[i] = i%3 != 0 // cells 0,3,6 undefined at snapshot
			}
			for s := 0; s < steps; s++ {
				p := rng.Intn(nPages)
				off := rng.Intn(pageSize)
				_, kOut := km.Lookup(Key{Page: p}, off)
				sOut := sm.LookupSlot(p, off)
				if kOut != sOut {
					t.Fatalf("step %d page %d off %d: key mode %v, slot mode %v", s, p, off, kOut, sOut)
				}
				if kOut != Hit {
					var def []bool
					if p%2 == 0 { // alternate partially filled pages
						def = defined
					}
					kDef := def
					if kDef != nil {
						kDef = append([]bool(nil), def...) // Key mode retains the slice
					}
					km.Insert(Key{Page: p}, append([]float64(nil), page...), kDef)
					sm.InsertSlot(p, def)
				}
			}
			if km.Stats() != sm.Stats() {
				t.Errorf("stats diverged:\nkey  %+v\nslot %+v", km.Stats(), sm.Stats())
			}
			kKeys, sKeys := km.Keys(), sm.Keys()
			if len(kKeys) != len(sKeys) {
				t.Fatalf("resident pages: key mode %d, slot mode %d", len(kKeys), len(sKeys))
			}
			for i := range kKeys {
				if kKeys[i].Page != sKeys[i].Page {
					t.Errorf("recency order diverged at %d: %v vs %v", i, kKeys, sKeys)
				}
			}
		})
	}
}

// TestReconfigureSlotsRestoresFreshState verifies that a reconfigured
// cache behaves exactly like a newly created one, including the Random
// policy's deterministic seed.
func TestReconfigureSlotsRestoresFreshState(t *testing.T) {
	for _, pol := range []Policy{LRU, Random} {
		used, err := NewSlots(64, 8, pol, 16)
		if err != nil {
			t.Fatal(err)
		}
		// Dirty it.
		for p := 0; p < 16; p++ {
			used.LookupSlot(p, 0)
			used.InsertSlot(p, nil)
		}
		if err := used.ReconfigureSlots(32, 4, pol, 24); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewSlots(32, 4, pol, 24)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for s := 0; s < 2000; s++ {
			p := rng.Intn(24)
			a := used.LookupSlot(p, rng.Intn(4))
			b := fresh.LookupSlot(p, 0)
			if a != b {
				t.Fatalf("%s: step %d: reconfigured %v, fresh %v", pol, s, a, b)
			}
			if a != Hit {
				used.InsertSlot(p, nil)
				fresh.InsertSlot(p, nil)
			}
		}
		if used.Stats() != fresh.Stats() {
			t.Errorf("%s: stats diverged: %+v vs %+v", pol, used.Stats(), fresh.Stats())
		}
	}
}

// TestSlotModeNoFrames pins the degenerate no-cache configuration:
// every lookup misses and inserts are no-ops, matching Key mode.
func TestSlotModeNoFrames(t *testing.T) {
	c, err := NewSlots(0, 32, LRU, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if out := c.LookupSlot(i, 0); out != Miss {
			t.Fatalf("lookup %d: %v, want Miss", i, out)
		}
		c.InsertSlot(i, nil)
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
