package sim

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/partition"
)

// runCounts runs k under cfg on the reference simulator and returns the
// result with Config cleared: everything a configuration's counts are.
func runCounts(k *loops.Kernel, cfg Config) (*Result, error) {
	res, err := Run(k, 0, cfg)
	if err != nil {
		return nil, err
	}
	res.Config = Config{}
	return res, nil
}

// randomRepConfig draws a configuration aimed at Representative's rules:
// one PE, runs -1…2, cache sizes below a page, of exactly one frame and
// off the page grid, and every layout and policy.
func randomRepConfig(r *rand.Rand) Config {
	ps := 1 + r.IntN(100)
	var ce int
	switch r.IntN(5) {
	case 0:
		ce = 0
	case 1:
		ce = r.IntN(ps) // under one page: frameless
	case 2:
		ce = ps + r.IntN(ps) // exactly one frame
	case 3:
		ce = 2*ps + r.IntN(ps) // two frames
	default:
		ce = (3+r.IntN(8))*ps + r.IntN(ps)
	}
	return Config{
		NPE:        []int{1, 1, 2, 3, 4, 8, 16}[r.IntN(7)],
		PageSize:   ps,
		CacheElems: ce,
		Policy:     cache.Policy(r.IntN(4)),
		Layout:     partition.Kind(r.IntN(3)),
		LayoutRun:  r.IntN(4) - 1,
	}
}

// TestRepresentativeCountsMatchReference is Representative's proof
// obligation, held against the reference simulator rather than a fast
// path: for every built-in kernel and seeded random configurations, a
// configuration and its representative fail together or agree on every
// Result field but Config. Each rule must fire on the sample;
// TestRepresentativeDoesNotOverMerge is the control that the rules stop
// where the counts start to differ.
func TestRepresentativeCountsMatchReference(t *testing.T) {
	r := rand.New(rand.NewPCG(30, 1989))
	const perKernel = 24
	var fired [5]int
	for _, k := range loops.All() {
		for range perKernel {
			cfg := randomRepConfig(r)
			rep := cfg.Representative()
			for i, hit := range [5]bool{
				cfg.Layout != partition.KindBlockCyclic && cfg.LayoutRun != 0,
				cfg.Layout == partition.KindBlockCyclic && cfg.LayoutRun <= 1,
				cfg.CacheElems%cfg.PageSize != 0,
				cfg.CacheElems/cfg.PageSize <= 1 && cfg.Policy != cache.LRU,
				cfg.NPE == 1,
			} {
				if hit {
					fired[i]++
				}
			}
			got, gerr := runCounts(k, cfg)
			want, werr := runCounts(k, rep)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s %+v: error %v, representative %+v: error %v", k.Key, cfg, gerr, rep, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v: counts differ from representative %+v", k.Key, cfg, rep)
			}
		}
	}
	for i, n := range fired {
		if n == 0 {
			t.Errorf("rule %d never fired on the sample", i+1)
		}
	}
}

// TestRepresentativeDoesNotOverMerge finds, among the built-ins, a
// block-cyclic run-2 configuration whose counts differ from its modulo
// twin and a two-frame FIFO configuration whose counts differ from its
// LRU twin — and checks Representative keeps each apart.
func TestRepresentativeDoesNotOverMerge(t *testing.T) {
	differs := func(a, b Config) bool {
		if a.Representative() == b.Representative() {
			t.Fatalf("%+v and %+v share a representative", a, b)
		}
		for _, k := range loops.All() {
			ra, err := runCounts(k, a)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := runCounts(k, b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ra, rb) {
				return true
			}
		}
		return false
	}

	bc := PaperConfig(4, 16)
	bc.Layout, bc.LayoutRun = partition.KindBlockCyclic, 2
	if !differs(bc, PaperConfig(4, 16)) {
		t.Error("no built-in tells block-cyclic run 2 from modulo: the control is vacuous")
	}

	fifo := PaperConfig(4, 16)
	fifo.CacheElems = 32 // two frames
	lru := fifo
	fifo.Policy = cache.FIFO
	if !differs(fifo, lru) {
		t.Error("no built-in tells two-frame FIFO from LRU: the control is vacuous")
	}
}

// TestRepresentativeFixedPoints: configurations Representative must not
// touch map to themselves, and a representative is its own.
func TestRepresentativeFixedPoints(t *testing.T) {
	odd := func(f func(*Config)) Config {
		c := Config{NPE: 1, PageSize: 16, CacheElems: 20, Policy: cache.Clock, Layout: partition.KindBlockCyclic, LayoutRun: 1}
		f(&c)
		return c
	}
	for name, c := range map[string]Config{
		"npe 0":           odd(func(c *Config) { c.NPE = 0 }),
		"page size 0":     odd(func(c *Config) { c.PageSize = 0 }),
		"negative cache":  odd(func(c *Config) { c.CacheElems = -1 }),
		"unknown policy":  odd(func(c *Config) { c.Policy = cache.Policy(9) }),
		"unknown layout":  odd(func(c *Config) { c.Layout = partition.Kind(7) }),
		"partial fill":    odd(func(c *Config) { c.ModelPartialFill = true }),
		"paper baseline":  PaperConfig(8, 32),
		"block-cyclic(2)": odd(func(c *Config) { c.NPE, c.CacheElems, c.LayoutRun = 4, 64, 2 }),
	} {
		if got := c.Representative(); got != c {
			t.Errorf("%s: Representative(%+v) = %+v, want it unchanged", name, c, got)
		}
	}

	r := rand.New(rand.NewPCG(7, 11))
	for range 1000 {
		rep := randomRepConfig(r).Representative()
		if again := rep.Representative(); again != rep {
			t.Fatalf("Representative is not idempotent: %+v -> %+v", rep, again)
		}
	}
}

// TestRepresentativeRules pins each rule on a hand-written case.
func TestRepresentativeRules(t *testing.T) {
	base := Config{NPE: 4, PageSize: 16, CacheElems: 256, Policy: cache.FIFO, Layout: partition.KindModulo}
	with := func(f func(*Config)) Config {
		c := base
		f(&c)
		return c
	}
	cases := []struct {
		name    string
		in, out Config
	}{
		{"modulo drops its run",
			with(func(c *Config) { c.LayoutRun = 3 }), base},
		{"block drops its run",
			with(func(c *Config) { c.Layout, c.LayoutRun = partition.KindBlock, 3 }),
			with(func(c *Config) { c.Layout = partition.KindBlock })},
		{"block-cyclic(1) is modulo",
			with(func(c *Config) { c.Layout, c.LayoutRun = partition.KindBlockCyclic, 1 }), base},
		{"block-cyclic(-1) is modulo",
			with(func(c *Config) { c.Layout, c.LayoutRun = partition.KindBlockCyclic, -1 }), base},
		{"cache rounds down to whole frames",
			with(func(c *Config) { c.CacheElems = 270 }), base},
		{"one frame is LRU",
			with(func(c *Config) { c.CacheElems = 31 }),
			with(func(c *Config) { c.CacheElems, c.Policy = 16, cache.LRU })},
		{"no frame is LRU without a cache",
			with(func(c *Config) { c.CacheElems = 15 }),
			with(func(c *Config) { c.CacheElems, c.Policy = 0, cache.LRU })},
		{"one PE ignores layout, cache and policy",
			with(func(c *Config) { c.NPE, c.Layout, c.LayoutRun = 1, partition.KindBlockCyclic, 4 }),
			Config{NPE: 1, PageSize: 16, Policy: cache.LRU, Layout: partition.KindModulo}},
	}
	for _, c := range cases {
		if got := c.in.Representative(); got != c.out {
			t.Errorf("%s: Representative(%+v) = %+v, want %+v", c.name, c.in, got, c.out)
		}
	}
}
