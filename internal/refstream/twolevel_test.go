package refstream

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
)

// cacheStep is one read of a page string against a real count-only
// cache, with replay's discipline: look up, insert on a miss.
func cacheStep(c *cache.Cache, g int32) bool {
	if _, out := c.Lookup(int(g), 0); out == cache.Hit {
		return true
	}
	c.Insert(int(g), nil, nil)
	return false
}

// closedStats is a framed configuration's cache statistics in closed
// form from its hit and miss counts (the package comment of batch.go).
func closedStats(hits, misses int64, frames int) cache.Stats {
	return cache.Stats{Hits: hits, Misses: misses, Inserts: misses, Evictions: misses - min(int64(frames), misses)}
}

// FuzzPolicyRowsMatchCache holds level 2's rows to cache.Cache step by
// step: over a fuzzed page string, a frame count from 1 to 130 and
// every policy, each read must hit or miss exactly as the count-only
// cache's Lookup/Insert does, and the closed-form statistics must equal
// the cache's own. LRU runs the stack row with a single size.
func FuzzPolicyRowsMatchCache(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(7), []byte{0, 1, 2, 0, 3, 1, 4, 5, 0, 2, 6, 1})
	f.Add(uint8(1), uint8(2), uint8(5), []byte{0, 1, 2, 3, 0, 1, 4, 0, 1, 2, 3, 4})
	f.Add(uint8(2), uint8(4), uint8(9), []byte{0, 1, 2, 3, 0, 1, 4, 2, 3, 5, 6, 0, 1, 7, 8})
	f.Add(uint8(3), uint8(3), uint8(12), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 5, 9})
	f.Add(uint8(2), uint8(129), uint8(200), []byte{1, 2, 3, 4, 5, 1, 2, 3})
	// Clock evictions from the middle of the row, each followed by a
	// read that hits only if the hand rested on the victim's older
	// neighbour: TestPolicyRowsPinned's sweep plus a re-read of B, and
	// a shortest such string on three frames.
	f.Add(uint8(2), uint8(3), uint8(7), []byte{0, 1, 2, 3, 0, 1, 4, 1, 2, 5, 6, 1})
	f.Add(uint8(2), uint8(2), uint8(4), []byte{4, 3, 1, 2, 3, 0, 3, 4, 2})
	f.Fuzz(func(t *testing.T, policy, frames, pages uint8, str []byte) {
		pol := cache.Policy(policy % 4)
		fr := int(frames)%130 + 1
		np := int(pages)%200 + 1
		c, err := cache.New(fr, 1, pol, np)
		if err != nil {
			t.Fatal(err)
		}
		var two twoLevel
		var hits, misses int64
		var touch func(int32) bool
		if pol == cache.LRU {
			two.sizeStacks([]int{fr}, np)
			s := two.stack(np)
			touch = func(g int32) bool { return s.touch(g) == 0 }
		} else {
			r := two.policyRow(pol, fr, np)
			touch = r.touch
		}
		for step, b := range str {
			g := int32(int(b) % np)
			want := cacheStep(c, g)
			if got := touch(g); got != want {
				t.Fatalf("%s frames=%d pages=%d step %d page %d: row hit=%v, cache hit=%v", pol, fr, np, step, g, got, want)
			}
			if want {
				hits++
			} else {
				misses++
			}
		}
		if got, want := closedStats(hits, misses, fr), c.Stats(); got != want {
			t.Errorf("%s frames=%d pages=%d: closed-form stats %+v, cache %+v", pol, fr, np, got, want)
		}
	})
}

// TestPolicyRowsPinned pins the two decisions the rows reproduce
// without cache.Cache's list: where Clock's hand rests after an
// eviction, and which page each of Random's draws evicts. Every step
// is also checked against the count-only cache's resident set.
func TestPolicyRowsPinned(t *testing.T) {
	const A, B, C, D, E, F, G, H = 0, 1, 2, 3, 4, 5, 6, 7
	type step struct {
		page int32
		row  []int32 // resident pages after the read, oldest first
		hand int
	}
	// Four frames. After E evicts A every bit is clear but E's; B and C
	// are re-read, so F's sweep clears them and evicts D, and the hand
	// rests on C, D's older neighbour: G then evicts C at once. A hand
	// left on the victim's newer neighbour would have evicted E.
	clock := []step{
		{A, []int32{A}, 0}, {B, []int32{A, B}, 0}, {C, []int32{A, B, C}, 0}, {D, []int32{A, B, C, D}, 0},
		{A, []int32{A, B, C, D}, 0}, {B, []int32{A, B, C, D}, 0},
		{E, []int32{B, C, D, E}, 0},
		{B, []int32{B, C, D, E}, 0}, {C, []int32{B, C, D, E}, 0},
		{F, []int32{B, C, E, F}, 1},
		{G, []int32{B, E, F, G}, 0},
		{H, []int32{E, F, G, H}, 0},
	}
	var two twoLevel
	c, err := cache.New(4, 1, cache.Clock, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := two.policyRow(cache.Clock, 4, 8)
	for i, s := range clock {
		r.touch(s.page)
		cacheStep(c, s.page)
		if !slices.Equal(r.row, s.row) || r.head != s.hand {
			t.Errorf("clock step %d (page %d): row %v hand %d, want %v hand %d", i, s.page, r.row, r.head, s.row, s.hand)
		}
		if got := residentOldestFirst(c); !slices.Equal(got, s.row) {
			t.Errorf("clock step %d: cache.Cache holds %v, pinned row %v", i, got, s.row)
		}
	}

	// Three frames, pages 0..9 read once each: the victims of the seven
	// evictions, by page, as cache.NextRandom from cache.RandomSeed
	// draws them.
	wantVictims := []int32{2, 3, 4, 5, 0, 7, 6}
	c, err = cache.New(3, 1, cache.Random, 10)
	if err != nil {
		t.Fatal(err)
	}
	rr := two.policyRow(cache.Random, 3, 10)
	var victims []int32
	for g := int32(0); g < 10; g++ {
		before := slices.Clone(rr.row)
		rr.touch(g)
		cacheStep(c, g)
		for _, p := range before {
			if !slices.Contains(rr.row, p) {
				victims = append(victims, p)
			}
		}
		if got := residentOldestFirst(c); !slices.Equal(got, rr.row) {
			t.Errorf("random page %d: cache.Cache holds %v, row %v", g, got, rr.row)
		}
	}
	if !slices.Equal(victims, wantVictims) {
		t.Errorf("random victims %v, want %v", victims, wantVictims)
	}
}

// residentOldestFirst lists a FIFO/Clock/Random cache's pages in
// insertion order (Pages lists them newest first).
func residentOldestFirst(c *cache.Cache) []int32 {
	pages := c.Pages()
	out := make([]int32, len(pages))
	for i, p := range pages {
		out[len(pages)-1-i] = int32(p)
	}
	return out
}

// controlKernel is a valid kernel whose loop body reads its input
// outside any assignment: each iteration's branch condition is a
// replicated control read, executed on every PE (as the simulator
// classifies it), so level 1 puts it in every PE's string but its
// owner's. No built-in emits a control-read record at its default size.
func controlKernel() *loops.Kernel {
	return &loops.Kernel{
		Key: "ctrlread", Name: "ctrlread", DefaultN: 96, MinN: 4,
		Arrays: func(n int) []loops.Spec {
			return []loops.Spec{
				{Name: "OUT", Dims: []int{n + 1}},
				{Name: "IN", Dims: []int{n + 1}, Init: loops.InitAll(func(i int) float64 { return float64((i*7)%11) - 5 })},
			}
		},
		Run: func(c *loops.Ctx, n int) {
			out, in := c.A("OUT"), c.A("IN")
			for i := 1; i <= n; i++ {
				j := (i * 5) % (n + 1)
				if in.Get(j) > 0 { // control read: every PE evaluates the branch
					out.Set(func() float64 { return in.Get(i-1) + in.Get(i) }, i)
				} else {
					out.Set(func() float64 { return in.Get(n-i) - in.Get(j) }, i)
				}
			}
		},
		Outputs: []string{"OUT"},
	}
}

// TestControlReadsEveryPolicy checks the control-read branch of both
// level-1 feeders under every policy, against sim.Run: the grid as one
// batch, one owner map per (NPE, page size, layout) holding LRU at
// several sizes and FIFO, Clock and Random, walks the read column
// (peStrings.build), and every configuration again through Run, a
// one-configuration call, walks the event columns
// (peStrings.buildEvents).
func TestControlReadsEveryPolicy(t *testing.T) {
	k := controlKernel()
	const n = 96
	st, err := Capture(k, n)
	if err != nil {
		t.Fatal(err)
	}
	if st.frameAgg(4).ctrlTotal == 0 {
		t.Fatal("no control reads: the kernel does not exercise level 1's control-read branch")
	}
	var cfgs []sim.Config
	for _, npe := range []int{2, 3, 8} {
		for _, ps := range []int{1, 4, 16} {
			for _, lay := range []partition.Kind{partition.KindModulo, partition.KindBlock, partition.KindBlockCyclic} {
				for _, fr := range []int{1, 2, 3, 5, 100} {
					for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Clock, cache.Random} {
						cfgs = append(cfgs, sim.Config{NPE: npe, PageSize: ps, CacheElems: fr * ps, Policy: pol, Layout: lay, LayoutRun: 2})
					}
				}
			}
		}
	}
	batchReg, runReg := obs.NewRegistry(), obs.NewRegistry()
	r := NewReplayer()
	r.Metrics = batchReg
	got, err := r.RunBatchN(st, cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	built := st.readCols.builds.Load()
	one := NewReplayer()
	one.Metrics = runReg
	for i, cfg := range cfgs {
		want, err := sim.Run(k, n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%+v: batch diverges from sim.Run\nbatch: %v %v\nsim:   %v %v", cfg, got[i].Totals, got[i].Cache, want.Totals, want.Cache)
		}
		res, err := one.Run(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("%+v: Run diverges from sim.Run\nRun: %v %v\nsim: %v %v", cfg, res.Totals, res.Cache, want.Totals, want.Cache)
		}
	}
	for leg, reg := range map[string]*obs.Registry{"batch": batchReg, "Run": runReg} {
		for _, p := range []path{pathStack, pathPolicy} {
			if reg.Counter(pathMetric[p]).Value() == 0 {
				t.Errorf("%s leg: %s = 0: the grid holds two-level configurations", leg, pathMetric[p])
			}
		}
	}
	if got := st.readCols.builds.Load(); got != built {
		t.Errorf("the Run leg built %d read columns, want 0: it feeds level 1 from the events", got-built)
	}
}

// FuzzSharedOwnerMap fuzzes the configurations of one owner map: the
// kernel, problem size, NPE, page size, layout and layout run are fixed
// per input, and every byte pair of spec adds a configuration of that
// map with a fuzzed frame count and policy. Every result must equal
// sim.Run's, so level 1's strings and every level-2 row are checked
// against the simulator with the map shared.
func FuzzSharedOwnerMap(f *testing.F) {
	f.Add(uint8(5), uint16(160), uint8(8), uint8(16), uint8(0), uint8(1), []byte{1, 0, 3, 0, 16, 0, 64, 0, 100, 0, 2, 1, 2, 2, 2, 3})
	f.Add(uint8(2), uint16(300), uint8(6), uint8(8), uint8(2), uint8(3), []byte{4, 1, 4, 2, 4, 3, 9, 0, 130, 3})
	f.Add(uint8(0), uint16(96), uint8(3), uint8(4), uint8(1), uint8(2), []byte{2, 0, 2, 1, 2, 2, 2, 3, 7, 0})
	kernels := append(loops.All(), controlKernel())
	f.Fuzz(func(t *testing.T, kIdx uint8, n uint16, npe, ps, layout, run uint8, spec []byte) {
		k := kernels[int(kIdx)%len(kernels)]
		size := int(n)%400 + 1
		base := sim.Config{
			NPE:       int(npe)%64 + 2,
			PageSize:  int(ps)%64 + 1,
			Layout:    partition.Kind(int(layout) % 3),
			LayoutRun: int(run)%6 + 1,
		}
		var cfgs []sim.Config
		for j := 0; j+1 < len(spec) && len(cfgs) < 12; j += 2 {
			c := base
			c.CacheElems = (int(spec[j])%131 + 1) * base.PageSize
			c.Policy = cache.Policy(spec[j+1] % 4)
			cfgs = append(cfgs, c)
		}
		if len(cfgs) == 0 {
			return
		}
		st := cachedCapture(t, k, size)
		got, err := NewReplayer().RunBatchN(st, cfgs, 1)
		if err != nil {
			t.Fatalf("batch rejected %+v: %v", cfgs, err)
		}
		for i, cfg := range cfgs {
			want, err := sim.Run(k, size, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s n=%d %+v: batch diverges from sim.Run\nbatch: %v %v\nsim:   %v %v",
					k.Key, size, cfg, got[i].Totals, got[i].Cache, want.Totals, want.Cache)
			}
		}
	})
}

// TestLRUInclusion checks the paper's LRU page cache against the
// inclusion property of Mattson et al. with sim.Run as the oracle: for
// every built-in at its small size and every (NPE, page size, layout)
// of a small grid, remote reads never increase with the frame count,
// and the batch's results (one owner map per triple, two-level) equal
// the simulator's.
func TestLRUInclusion(t *testing.T) {
	frames := []int{0, 1, 3, 8, 64, 100}
	for _, k := range loops.All() {
		t.Run(k.Key, func(t *testing.T) {
			t.Parallel()
			n := smallN(k)
			st, err := Capture(k, n)
			if err != nil {
				t.Fatal(err)
			}
			r := NewReplayer()
			for _, npe := range []int{3, 16} {
				for _, ps := range []int{4, 32} {
					for _, lay := range []partition.Kind{partition.KindModulo, partition.KindBlock, partition.KindBlockCyclic} {
						var cfgs []sim.Config
						for _, fr := range frames {
							cfgs = append(cfgs, sim.Config{NPE: npe, PageSize: ps, CacheElems: fr * ps, Layout: lay, LayoutRun: 3})
						}
						got, err := r.RunBatchN(st, cfgs, 1)
						if err != nil {
							t.Fatal(err)
						}
						prev := int64(-1)
						for i, cfg := range cfgs {
							want, err := sim.Run(k, n, cfg)
							if err != nil {
								t.Fatal(err)
							}
							if prev >= 0 && want.Totals.RemoteReads > prev {
								t.Errorf("npe=%d ps=%d %s: %d frames read %d pages remotely, %d frames read %d",
									npe, ps, lay, frames[i-1], prev, frames[i], want.Totals.RemoteReads)
							}
							prev = want.Totals.RemoteReads
							if !reflect.DeepEqual(got[i], want) {
								t.Errorf("%s: batch diverges from sim.Run", fmt.Sprintf("%+v", cfg))
							}
						}
					}
				}
			}
		})
	}
}

// TestOneConfigScratchBounded pins what a Replayer serving single
// points retains for its PE strings: after a few hundred mixed
// one-configuration calls — NPE 1 to 64, every policy and layout,
// several kernels and sizes — the block pool holds at most what the
// largest call needed, its runs plus one partly filled block per PE.
// Per-PE growable strings would instead keep, in every PE slot, the
// longest string any call ever wrote there.
func TestOneConfigScratchBounded(t *testing.T) {
	var streams []*Stream
	for _, key := range []string{"k1", "k6", "k8", "k18", "k2"} {
		k, err := loops.ByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{k.DefaultN, k.DefaultN / 2} {
			st, err := Capture(k, n)
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, st)
		}
	}
	rng := rand.New(rand.NewSource(43))
	r := NewReplayer()
	bound, framed := 0, 0
	for i := 0; i < 300; i++ {
		st := streams[rng.Intn(len(streams))]
		cfg := sim.Config{
			NPE:        1 + rng.Intn(64),
			PageSize:   []int{8, 16, 32, 64, 128}[rng.Intn(5)],
			CacheElems: 32 * (1 + rng.Intn(31)),
			Policy:     cache.Policy(rng.Intn(4)),
			Layout:     partition.Kind(rng.Intn(3)),
			LayoutRun:  1 + rng.Intn(4),
		}
		if i%4 == 0 {
			cfg.NPE = 1 + rng.Intn(4) // few PEs: long strings
		}
		if _, err := r.Run(st, cfg); err != nil {
			t.Fatal(err)
		}
		if !classOf(cfg, pageCount(st.ArrayLens, cfg.PageSize)).path.twoLevel() {
			continue
		}
		framed++
		bound = max(bound, stringRuns(&r.two.peStrings)+blockRuns*cfg.NPE)
	}
	if framed < 200 {
		t.Fatalf("only %d of the calls built PE strings", framed)
	}
	got := retainedRuns(&r.two.peStrings)
	t.Logf("%d framed calls: the scratch retains %d runs, bound %d", framed, got, bound)
	if got > bound {
		t.Errorf("the PE-string scratch retains %d runs after %d calls, want <= %d: the largest call's runs plus one block per PE",
			got, framed, bound)
	}
}

// stringRuns counts the runs of the last build's strings.
func stringRuns(s *peStrings) int {
	n := 0
	for _, x := range s.str {
		for b := x.head; b >= 0; b = s.link[b] {
			n += len(s.pool[b])
		}
	}
	return n
}

// retainedRuns is the capacity, in runs, that the strings' scratch
// keeps between builds.
func retainedRuns(s *peStrings) int {
	n := 0
	for _, blk := range s.pool {
		n += cap(blk)
	}
	return n
}
