package refstream

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/partition"
	"repro/internal/sim"
)

// streamCache memoizes captures across fuzz iterations so the fuzzer
// spends its budget on configuration space, not on re-executing
// kernels. Keyed by (kernel, clamped n); safe for parallel fuzz
// workers.
var streamCache sync.Map

func cachedCapture(t *testing.T, k *loops.Kernel, n int) *Stream {
	t.Helper()
	type key struct {
		k *loops.Kernel
		n int
	}
	ck := key{k, k.ClampN(n)}
	if st, ok := streamCache.Load(ck); ok {
		return st.(*Stream)
	}
	st, err := Capture(k, n)
	if err != nil {
		t.Fatalf("capture %s/n=%d: %v", k.Key, n, err)
	}
	streamCache.Store(ck, st)
	return st
}

// FuzzReplayVsDirect drives the equivalence contract through randomized
// machine configurations: any (NPE, PageSize, CacheElems, Layout,
// LayoutRun, Policy) shape the fuzzer reaches must classify the
// captured stream bit-identically to a direct sim.Run.
func FuzzReplayVsDirect(f *testing.F) {
	// Seeds cover each layout kind, each policy, degenerate machines and
	// reduction-heavy kernels; the last three are small LRU caches under
	// Block layout with NPE 12 and under block-cyclic(3) layout, and a
	// 32-frame LRU, all priced by the two-level stack walk.
	f.Add(uint8(0), uint16(200), uint8(8), uint8(32), uint16(256), uint8(0), uint8(1), uint8(0))
	f.Add(uint8(3), uint16(100), uint8(1), uint8(1), uint16(0), uint8(1), uint8(2), uint8(1))
	f.Add(uint8(7), uint16(333), uint8(64), uint8(16), uint16(64), uint8(2), uint8(3), uint8(2))
	f.Add(uint8(11), uint16(64), uint8(5), uint8(7), uint16(31), uint8(0), uint8(1), uint8(3))
	f.Add(uint8(23), uint16(400), uint8(16), uint8(64), uint16(1024), uint8(1), uint8(1), uint8(0))
	f.Add(uint8(0), uint16(200), uint8(11), uint8(31), uint16(256), uint8(1), uint8(0), uint8(0))
	f.Add(uint8(5), uint16(100), uint8(5), uint8(15), uint16(64), uint8(2), uint8(2), uint8(0))
	f.Add(uint8(2), uint16(300), uint8(7), uint8(15), uint16(512), uint8(0), uint8(0), uint8(0))
	kernels := loops.All()
	f.Fuzz(func(t *testing.T, kIdx uint8, n uint16, npe, ps uint8, ce uint16, layout, run, policy uint8) {
		k := kernels[int(kIdx)%len(kernels)]
		size := int(n)%400 + 1
		cfg := sim.Config{
			NPE:        int(npe)%64 + 1,
			PageSize:   int(ps)%96 + 1,
			CacheElems: int(ce) % 2048,
			Policy:     cache.Policy(int(policy) % 4),
			Layout:     partition.Kind(int(layout) % 3),
			LayoutRun:  int(run)%6 + 1,
		}
		want, err := sim.Run(k, size, cfg)
		if err != nil {
			t.Fatalf("direct run rejected fuzzed config %+v: %v", cfg, err)
		}
		st := cachedCapture(t, k, size)
		got, err := NewReplayer().Run(st, cfg)
		if err != nil {
			t.Fatalf("replay rejected config %+v the direct path accepted: %v", cfg, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s n=%d cfg=%+v: replay diverges from direct run\nreplay: totals %v reduce %d/%d\ndirect: totals %v reduce %d/%d",
				k.Key, size, cfg,
				got.Totals, got.ReduceSends, got.ReduceBcasts,
				want.Totals, want.ReduceSends, want.ReduceBcasts)
		}
	})
}

// FuzzBatchVsSingle drives the batch replayer's equivalence contract
// through randomized capture groups: RunBatchN over a fuzzer-shaped
// group of configurations must match looped single-config Run result
// for result, bit-identically, with the group's page-size mix, PE
// widths, cache shapes and policies all varied together. A group of
// two or more feeds level 1 from the read column and Run from the event
// columns, so this is also the two feeders' agreement check. The axes
// step per configuration, so no two share an owner map;
// FuzzSharedOwnerMap covers shared maps.
func FuzzBatchVsSingle(f *testing.F) {
	f.Add(uint8(0), uint16(200), uint8(8), uint8(32), uint16(256), uint8(0), uint8(1), uint8(0), uint8(3))
	f.Add(uint8(3), uint16(100), uint8(1), uint8(1), uint16(0), uint8(1), uint8(2), uint8(1), uint8(7))
	f.Add(uint8(7), uint16(333), uint8(64), uint8(16), uint16(64), uint8(2), uint8(3), uint8(2), uint8(1))
	f.Add(uint8(23), uint16(400), uint8(16), uint8(64), uint16(1024), uint8(1), uint8(1), uint8(3), uint8(5))
	kernels := loops.All()
	f.Fuzz(func(t *testing.T, kIdx uint8, n uint16, npe, ps uint8, ce uint16, layout, run, policy, k uint8) {
		kernel := kernels[int(kIdx)%len(kernels)]
		size := int(n)%400 + 1
		// Derive a group of up to 8 configurations from the seed shape by
		// stepping each axis deterministically, so one fuzz input covers
		// mixed page sizes and mixed fast-path classes in a single batch.
		group := int(k)%8 + 1
		cfgs := make([]sim.Config, 0, group)
		for i := 0; i < group; i++ {
			cfgs = append(cfgs, sim.Config{
				NPE:        (int(npe)+i*3)%64 + 1,
				PageSize:   (int(ps)+i*7)%96 + 1,
				CacheElems: (int(ce) + i*128) % 2048,
				Policy:     cache.Policy((int(policy) + i) % 4),
				Layout:     partition.Kind((int(layout) + i) % 3),
				LayoutRun:  (int(run)+i)%6 + 1,
			})
		}
		st := cachedCapture(t, kernel, size)
		got, err := NewReplayer().RunBatchN(st, cfgs, 1)
		if err != nil {
			t.Fatalf("batch rejected group %+v: %v", cfgs, err)
		}
		single := NewReplayer()
		for i, cfg := range cfgs {
			want, err := single.Run(st, cfg)
			if err != nil {
				t.Fatalf("single-config replay rejected %+v the batch accepted: %v", cfg, err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s n=%d config %d %+v: batch diverges from single-config replay\nbatch:  totals %v reduce %d/%d\nsingle: totals %v reduce %d/%d",
					kernel.Key, size, i, cfg,
					got[i].Totals, got[i].ReduceSends, got[i].ReduceBcasts,
					want.Totals, want.ReduceSends, want.ReduceBcasts)
			}
		}
	})
}

// FuzzParallelVsSerialBatch drives the chunk split's equivalence
// contract: a fuzzer-shaped capture group, cut fine and its chunks
// dealt in turn to a fuzzer-chosen number of Replayers with RunChunk —
// the split internal/sweep's workers run side by side, here run on one
// goroutine — must match one RunBatchN pass of the same group exactly:
// results at the same indices, bit-identical, across group sizes from
// one chunk to many and Replayer counts below, at and above the chunk
// count. A fineCut RunBatchN of the group, its chunks run one after
// another on one Replayer, must match too.
func FuzzParallelVsSerialBatch(f *testing.F) {
	f.Add(uint8(0), uint16(200), uint8(8), uint8(32), uint16(256), uint8(0), uint8(1), uint8(0), uint8(11), uint8(4))
	f.Add(uint8(3), uint16(100), uint8(1), uint8(1), uint16(0), uint8(1), uint8(2), uint8(1), uint8(7), uint8(2))
	f.Add(uint8(7), uint16(333), uint8(64), uint8(16), uint16(64), uint8(2), uint8(3), uint8(2), uint8(3), uint8(8))
	f.Add(uint8(23), uint16(400), uint8(16), uint8(64), uint16(1024), uint8(1), uint8(1), uint8(3), uint8(19), uint8(3))
	kernels := loops.All()
	f.Fuzz(func(t *testing.T, kIdx uint8, n uint16, npe, ps uint8, ce uint16, layout, run, policy, k, workers uint8) {
		kernel := kernels[int(kIdx)%len(kernels)]
		size := int(n)%400 + 1
		// Group sizes up to 24, cut at about one owner map of one policy
		// configuration per chunk (fineCut), so the fuzzer reaches ragged
		// multi-chunk splits; axes step exactly as in FuzzBatchVsSingle.
		group := int(k)%24 + 1
		cfgs := make([]sim.Config, 0, group)
		for i := 0; i < group; i++ {
			cfgs = append(cfgs, sim.Config{
				NPE:        (int(npe)+i*3)%64 + 1,
				PageSize:   (int(ps)+i*7)%96 + 1,
				CacheElems: (int(ce) + i*128) % 2048,
				Policy:     cache.Policy((int(policy) + i) % 4),
				Layout:     partition.Kind((int(layout) + i) % 3),
				LayoutRun:  (int(run)+i)%6 + 1,
			})
		}
		st := cachedCapture(t, kernel, size)
		want, err := NewReplayer().RunBatchN(st, cfgs, 1)
		if err != nil {
			t.Fatalf("one-pass batch rejected group %+v: %v", cfgs, err)
		}
		cut, err := fineCut(st).RunBatchN(st, cfgs, 1)
		if err != nil {
			t.Fatalf("chunked batch rejected a group the one-pass batch accepted: %v", err)
		}
		rs := make([]*Replayer, int(workers)%8+1)
		for p := range rs {
			rs[p] = NewReplayer()
		}
		dealt := dealChunks(t, st, cfgs, fineCut(st).Cut(st, cfgs), rs, false)
		for i := range cfgs {
			for name, got := range map[string]*sim.Result{"chunked RunBatchN": cut[i], "dealt chunks": dealt[i]} {
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s n=%d replayers=%d config %d %+v: %s diverges from one pass\nchunked: totals %v reduce %d/%d\none pass: totals %v reduce %d/%d",
						kernel.Key, size, len(rs), i, cfgs[i], name,
						got.Totals, got.ReduceSends, got.ReduceBcasts,
						want[i].Totals, want[i].ReduceSends, want[i].ReduceBcasts)
				}
			}
		}
	})
}
