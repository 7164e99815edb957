package sim

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/partition"
)

// TestScratchReuseMatchesFreshRuns drives one Scratch through a mixed
// grid of kernels and configurations — changing kernel, problem size,
// PE count, page size, cache size, policy and layout between runs — and
// requires every Result to be identical to a fresh sim.Run. This is the
// correctness contract that lets the sweep engine reuse one Scratch per
// worker.
func TestScratchReuseMatchesFreshRuns(t *testing.T) {
	type point struct {
		key string
		n   int
		cfg Config
	}
	var pts []point
	add := func(key string, n int, cfg Config) { pts = append(pts, point{key, n, cfg}) }
	add("k1", 200, PaperConfig(8, 32))
	add("k1", 200, PaperConfig(8, 32)) // exact repeat (bound context reused)
	add("k1", 200, NoCacheConfig(16, 64))
	add("k1", 300, PaperConfig(4, 8)) // same kernel, new n
	add("k2", 256, PaperConfig(16, 32))
	blk := PaperConfig(16, 32)
	blk.Layout = partition.KindBlock
	add("k2", 256, blk)
	pol := PaperConfig(8, 32)
	pol.Policy = cache.Random
	add("k2", 256, pol)
	pf := PaperConfig(8, 32)
	pf.ModelPartialFill = true
	add("k2", 256, pf)
	add("k18", 50, PaperConfig(32, 16)) // more PEs than before
	add("k6", 100, PaperConfig(2, 32))  // fewer PEs than before
	add("k24", 100, PaperConfig(4, 32)) // reduction kernel
	add("k1", 200, PaperConfig(8, 32))  // back to the first point

	s := NewScratch()
	for i, p := range pts {
		k, err := loops.ByKey(p.key)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Run(k, p.n, p.cfg)
		if err != nil {
			t.Fatalf("point %d (%s): scratch run: %v", i, p.key, err)
		}
		want, err := Run(k, p.n, p.cfg)
		if err != nil {
			t.Fatalf("point %d (%s): fresh run: %v", i, p.key, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("point %d (%s n=%d npe=%d ps=%d ce=%d): scratch and fresh results differ\nscratch totals: %v\nfresh totals:   %v",
				i, p.key, p.n, p.cfg.NPE, p.cfg.PageSize, p.cfg.CacheElems, got.Totals, want.Totals)
		}
	}
}

// TestScratchResultsIndependent verifies a Result stays valid after the
// Scratch is reused: the engine's slabs must never be aliased into it.
func TestScratchResultsIndependent(t *testing.T) {
	k1, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := loops.ByKey("k2")
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	first, err := s.Run(k1, 200, PaperConfig(8, 32))
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := Run(k1, 200, PaperConfig(8, 32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(k2, 512, NoCacheConfig(16, 64)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, snapshot) {
		t.Error("first result mutated by a later run on the same Scratch")
	}
}

// TestScratchErrorRuns verifies error paths leave the Scratch usable.
func TestScratchErrorRuns(t *testing.T) {
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	if _, err := s.Run(k, 100, Config{NPE: 0, PageSize: 32}); err == nil {
		t.Error("invalid NPE accepted")
	}
	bad := PaperConfig(8, 32)
	bad.Policy = cache.Policy(99)
	if _, err := s.Run(k, 100, bad); err == nil {
		t.Error("invalid policy accepted")
	}
	res, err := s.Run(k, 100, PaperConfig(8, 32))
	if err != nil {
		t.Fatalf("scratch unusable after error runs: %v", err)
	}
	want, err := Run(k, 100, PaperConfig(8, 32))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Error("post-error result differs from fresh run")
	}
}
