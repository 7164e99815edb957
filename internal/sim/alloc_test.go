package sim

import (
	"testing"

	"repro/internal/loops"
)

// maxResultAllocs bounds the allocations of one repeat Scratch.Run.
// The access path (classify, Reduce, cache probes) is allocation-free
// in the steady state — the reduction scratch, the bound context and
// every slab are retained by the Scratch — so what remains is the O(1)
// construction of the independent Result: the struct, the PerPE copy,
// the traffic slab + row headers, the cache-stats slice, the checksum
// slice, and at most one layout boxing per array. The bound is a
// constant, independent of problem size, PE count and event count; a
// regression that reintroduces a per-access or per-element allocation
// blows through it by orders of magnitude.
const maxResultAllocs = 10

// TestScratchRunSteadyStateAllocs guards the sweep hot path: after the
// first run of a (kernel, n) pair, repeat runs — which refill the slabs
// from the input tables and reuse the bound context — must not allocate beyond Result
// construction. Covers a plain kernel, a reduction-heavy kernel (the
// per-call `participated` scratch used to allocate here), and a wide
// machine so the bound provably does not scale with NPE.
func TestScratchRunSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		key string
		n   int
		cfg Config
	}{
		{"k1", 1000, PaperConfig(8, 32)},
		{"k24", 500, PaperConfig(8, 32)},  // reductions every iteration
		{"k24", 500, PaperConfig(64, 16)}, // wide machine, small pages
		{"k2", 512, NoCacheConfig(16, 32)},
	}
	for _, c := range cases {
		k, err := loops.ByKey(c.key)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScratch()
		if _, err := s.Run(k, c.n, c.cfg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.Run(k, c.n, c.cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxResultAllocs {
			t.Errorf("%s n=%d npe=%d: %.0f allocs per repeat Scratch.Run, want <= %d (Result construction only)",
				c.key, c.n, c.cfg.NPE, allocs, maxResultAllocs)
		}
	}
}
