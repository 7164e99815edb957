package refstream

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/partition"
	"repro/internal/sim"
)

// shapeGrid is the seeded configuration grid of the equivalence suite:
// every axis the sweep engine varies — PE count, page size, cache
// capacity, replacement policy, layout — including degenerate shapes
// (1 PE, page of 1, cache smaller than a page, more PEs than pages),
// and one owner map shared by LRU at five sizes (one frame, the inline
// row bound, past it) and FIFO, Clock and Random at two, so a batch
// prices them from one set of PE strings.
func shapeGrid() []sim.Config {
	var cfgs []sim.Config
	add := func(c sim.Config) { cfgs = append(cfgs, c) }
	add(sim.PaperConfig(1, 32))
	add(sim.PaperConfig(8, 32))
	add(sim.PaperConfig(64, 32))
	add(sim.NoCacheConfig(16, 32))
	add(sim.PaperConfig(8, 1))  // page per element
	add(sim.PaperConfig(16, 7)) // odd page size, partial trailing pages
	small := sim.PaperConfig(8, 64)
	small.CacheElems = 32 // cache smaller than one page: no frames
	add(small)
	blk := sim.PaperConfig(16, 32)
	blk.Layout = partition.KindBlock
	add(blk)
	bc := sim.PaperConfig(16, 32)
	bc.Layout = partition.KindBlockCyclic
	bc.LayoutRun = 3
	add(bc)
	for _, pol := range []cache.Policy{cache.FIFO, cache.Clock, cache.Random} {
		c := sim.PaperConfig(8, 16)
		c.Policy = pol
		add(c)
	}
	shared := sim.Config{NPE: 6, PageSize: 8, Layout: partition.KindBlockCyclic, LayoutRun: 2}
	for _, frames := range []int{1, 3, 16, 64, 100} {
		c := shared
		c.CacheElems = frames * shared.PageSize
		add(c)
	}
	for _, pol := range []cache.Policy{cache.FIFO, cache.Clock, cache.Random} {
		for _, frames := range []int{2, 100} {
			c := shared
			c.CacheElems, c.Policy = frames*shared.PageSize, pol
			add(c)
		}
	}
	return cfgs
}

// TestReplayMatchesDirectAllKernels is the equivalence contract of the
// execute-once/classify-many engine: for every kernel — including the
// reduction-heavy and control-read-heavy ones — and every shape in the
// seeded grid, replaying the captured stream must produce a Result
// bit-identical (reflect.DeepEqual, so per-PE counters, cache stats,
// traffic matrix, reduction counts and checksums alike) to a direct
// sim.Run of the same point.
func TestReplayMatchesDirectAllKernels(t *testing.T) {
	cfgs := shapeGrid()
	for _, k := range loops.All() {
		k := k
		t.Run(k.Key, func(t *testing.T) {
			t.Parallel()
			n := smallN(k)
			st, err := Capture(k, n)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			r := NewReplayer()
			for _, cfg := range cfgs {
				got, err := r.Run(st, cfg)
				if err != nil {
					t.Fatalf("replay npe=%d ps=%d: %v", cfg.NPE, cfg.PageSize, err)
				}
				want, err := sim.Run(k, n, cfg)
				if err != nil {
					t.Fatalf("direct npe=%d ps=%d: %v", cfg.NPE, cfg.PageSize, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("npe=%d ps=%d ce=%d %s/%s: replay diverges from direct run\nreplay: totals %v reduce %d/%d\ndirect: totals %v reduce %d/%d",
						cfg.NPE, cfg.PageSize, cfg.CacheElems, cfg.Layout, cfg.Policy,
						got.Totals, got.ReduceSends, got.ReduceBcasts,
						want.Totals, want.ReduceSends, want.ReduceBcasts)
				}
			}
		})
	}
}

// smallN picks a problem size that keeps the full-registry equivalence
// sweep fast while still exercising multiple pages per array.
func smallN(k *loops.Kernel) int {
	n := 160
	if n < k.MinN {
		n = k.MinN
	}
	return k.ClampN(n)
}

// TestReplayDefaultSizes spot-checks equivalence at each kernel's
// canonical problem size for the paper's baseline machine, so the
// sweep engine's production grid points are covered verbatim.
func TestReplayDefaultSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("default problem sizes are slow in -short mode")
	}
	for _, k := range loops.PaperSet() {
		st, err := Capture(k, 0)
		if err != nil {
			t.Fatalf("%s: %v", k.Key, err)
		}
		for _, cfg := range []sim.Config{sim.PaperConfig(16, 32), sim.NoCacheConfig(16, 32)} {
			got, err := NewReplayer().Run(st, cfg)
			if err != nil {
				t.Fatalf("%s: %v", k.Key, err)
			}
			want, err := sim.Run(k, 0, cfg)
			if err != nil {
				t.Fatalf("%s: %v", k.Key, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s n=%d: replay diverges at the paper grid point", k.Key, got.N)
			}
		}
	}
}

// TestReplayerReuse drives one Replayer through interleaved streams and
// configurations — the sweep-worker usage — and requires each Result to
// match a fresh Replayer's.
func TestReplayerReuse(t *testing.T) {
	k1, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	k24, err := loops.ByKey("k24")
	if err != nil {
		t.Fatal(err)
	}
	st1, err := Capture(k1, 300)
	if err != nil {
		t.Fatal(err)
	}
	st24, err := Capture(k24, 200)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplayer()
	pts := []struct {
		st  *Stream
		cfg sim.Config
	}{
		{st1, sim.PaperConfig(8, 32)},
		{st24, sim.PaperConfig(64, 16)}, // wider machine
		{st1, sim.PaperConfig(2, 8)},    // narrower again
		{st24, sim.NoCacheConfig(4, 32)},
		{st1, sim.PaperConfig(8, 32)}, // back to the first point
	}
	for i, p := range pts {
		got, err := r.Run(p.st, p.cfg)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		want, err := NewReplayer().Run(p.st, p.cfg)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("point %d: reused Replayer diverges from fresh one", i)
		}
	}
}

// TestReplayerResultsIndependent is the replay twin of sim's
// TestScratchResultsIndependent: every Result the Replayer has returned
// — from Run, RunChunk and a RunBatchN cut into many chunks — still
// equals direct execution after the same Replayer classifies another
// group on every entry point. Class-mates share one Result body, so a
// body that aliased a reused worker slab would be wrong for a whole
// class at once.
func TestReplayerResultsIndependent(t *testing.T) {
	k1, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	k24, err := loops.ByKey("k24")
	if err != nil {
		t.Fatal(err)
	}
	st1, err := Capture(k1, 200)
	if err != nil {
		t.Fatal(err)
	}
	st24, err := Capture(k24, 150)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := append(parGrid(), parGrid()...) // every configuration has a later class-mate
	r := fineCut(st1)                       // so RunBatchN runs many chunks
	classify := func(st *Stream, cfgs []sim.Config) (one *sim.Result, chunk, batch []*sim.Result) {
		t.Helper()
		one, err := r.Run(st, cfgs[1])
		if err != nil {
			t.Fatal(err)
		}
		chunk = make([]*sim.Result, len(cfgs))
		if err := r.RunChunk(st, cfgs, chunk); err != nil {
			t.Fatal(err)
		}
		if batch, err = r.RunBatchN(st, cfgs, 1); err != nil {
			t.Fatal(err)
		}
		return one, chunk, batch
	}
	one, chunk, batch := classify(st1, cfgs)
	classify(st24, shapeGrid()) // another stream, another group, on the same slabs

	for i, cfg := range cfgs {
		want, err := sim.Run(k1, 200, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && !reflect.DeepEqual(one, want) {
			t.Errorf("Run result for %+v changed after the Replayer classified another group", cfg)
		}
		for name, got := range map[string][]*sim.Result{"RunChunk": chunk, "RunBatchN": batch} {
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s position %d (%+v) changed after the Replayer classified another group", name, i, cfg)
			}
		}
	}
}

// TestStreamSharedConcurrently replays one Stream from many goroutines
// at once (each with its own Replayer), as sweep workers do; run under
// -race this proves the Stream is shared read-only.
func TestStreamSharedConcurrently(t *testing.T) {
	k, err := loops.ByKey("k2")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Capture(k, 256)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewReplayer().Run(st, sim.PaperConfig(8, 32))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := NewReplayer()
			for i := 0; i < 10; i++ {
				got, err := r.Run(st, sim.PaperConfig(8, 32))
				if err != nil {
					errs[g] = err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs[g] = errMismatch
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestStreamMemosBuildOnce: the per-page-size stream views are built
// single-flight. Chunks of one group start together on several workers
// and all ask for the same views of a fresh stream; every caller must
// get the same view and each (view, page size) must have been built
// exactly once — the racing builds of the old lock-free fill doubled
// the memo work of a cold group.
func TestStreamMemosBuildOnce(t *testing.T) {
	k, err := loops.ByKey("k2")
	if err != nil {
		t.Fatal(err)
	}
	pageSizes := []int{16, 32, 64}
	for rep := 0; rep < 20; rep++ {
		st, err := Capture(k, 256)
		if err != nil {
			t.Fatal(err)
		}
		const callers = 8
		type views struct {
			gids  []int32
			agg   *frameAgg
			hist  *readsHist
			reads []readRec
			fold  *foldTable
		}
		got := make([][]views, callers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for _, ps := range pageSizes {
					got[g] = append(got[g], views{st.gidColumn(ps), st.frameAgg(ps), st.readsHist(ps), st.readColumn(ps), st.foldTable(ps)})
				}
			}(g)
		}
		close(start)
		wg.Wait()
		for g := 1; g < callers; g++ {
			for i := range pageSizes {
				a, b := got[0][i], got[g][i]
				if &a.gids[0] != &b.gids[0] || a.agg != b.agg || a.hist != b.hist || &a.reads[0] != &b.reads[0] || a.fold != b.fold {
					t.Fatalf("rep %d: caller %d got a different view than caller 0 at page size %d", rep, g, pageSizes[i])
				}
			}
		}
		want := int64(len(pageSizes))
		for name, builds := range map[string]int64{
			"gidColumn": st.gidCols.builds.Load(), "frameAgg": st.aggCols.builds.Load(), "readsHist": st.histCols.builds.Load(),
			"readColumn": st.readCols.builds.Load(), "foldTable": st.foldTabs.builds.Load(),
		} {
			if builds != want {
				t.Errorf("rep %d: %s built %d times for %d page sizes, want one build each", rep, name, builds, want)
			}
		}
	}
}

var errMismatch = errString("concurrent replay diverged")

type errString string

func (e errString) Error() string { return string(e) }

// TestReplayUnsupportedConfigs: partial-fill configurations must be
// refused (the sweep planner falls back to direct execution).
func TestReplayUnsupportedConfigs(t *testing.T) {
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Capture(k, 100)
	if err != nil {
		t.Fatal(err)
	}
	pf := sim.PaperConfig(8, 32)
	pf.ModelPartialFill = true
	if _, err := NewReplayer().Run(st, pf); err == nil {
		t.Error("partial-fill config accepted by replay")
	}
	if Eligible(pf) {
		t.Error("Eligible accepts unsupported configs")
	}
	if !Eligible(sim.PaperConfig(8, 32)) {
		t.Error("Eligible rejects the baseline config")
	}
}

// TestReplayInvalidConfigs: malformed configurations error instead of
// panicking, mirroring sim's validation.
func TestReplayInvalidConfigs(t *testing.T) {
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Capture(k, 100)
	if err != nil {
		t.Fatal(err)
	}
	bad := []sim.Config{
		{NPE: 0, PageSize: 32},
		{NPE: 8, PageSize: 0},
		{NPE: 8, PageSize: 32, CacheElems: -1},
		{NPE: 8, PageSize: 32, CacheElems: 256, Policy: cache.Policy(99)},
		{NPE: 8, PageSize: 32, Layout: partition.Kind(99)},
	}
	for i, cfg := range bad {
		if _, err := NewReplayer().Run(st, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := Capture(nil, 10); err == nil {
		t.Error("nil kernel capture accepted")
	}
}

// TestStreamEncodingRoundTrip feeds randomized events through the
// wire form's column encoder and decoder and requires exact
// reconstruction — including negative deltas, large jumps and
// payload-less opcodes — and the byte length EncodedBytes reports.
// Reduction terms are kept consecutive on their driver array, as the
// decoder requires.
func TestStreamEncodingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1989))
	const arrays = 11
	var heads []uint32
	var lins []int32
	driver, term := -1, 0 // the open reduction's array (-1: none) and last term
	for i := 0; i < 5000; i++ {
		op := byte(rng.Intn(5))
		a := rng.Intn(arrays)
		lin := 0
		if opHasLin(op) {
			lin = rng.Intn(1 << 20)
		}
		switch {
		case op == opEnd:
			a = 0
		case op == opTerm && driver >= 0:
			a, lin = driver, term+1
		case op == opEndReduce && driver >= 0:
			a = driver
		}
		switch op {
		case opTerm:
			driver, term = a, lin
		case opEndReduce:
			driver = -1
		}
		heads = append(heads, uint32(a)<<3|uint32(op))
		lins = append(lins, int32(lin))
	}
	lens := make([]int, arrays)
	for i := range lens {
		lens[i] = 1 << 21
	}
	enc := &Stream{ArrayLens: lens, events: len(heads), dheads: heads, dlins: lins}
	r := &streamReader{buf: appendColumns(nil, heads, lins, arrays)}
	headsLen, err := r.length("heads column")
	if err != nil {
		t.Fatal(err)
	}
	headsCol := r.bytes(headsLen)
	linsLen, err := r.length("lins column")
	if err != nil {
		t.Fatal(err)
	}
	linsCol := r.bytes(linsLen)
	if len(r.buf) != 0 {
		t.Fatalf("%d bytes past the lins column", len(r.buf))
	}
	if got := enc.EncodedBytes(); got != headsLen+linsLen {
		t.Errorf("EncodedBytes() = %d, columns hold %d bytes", got, headsLen+linsLen)
	}
	dec := &Stream{ArrayLens: lens, events: len(heads)}
	if err := dec.decodeColumns(headsCol, linsCol); err != nil {
		t.Fatal(err)
	}
	if dec.Events() != len(heads) {
		t.Fatalf("Events() = %d, want %d", dec.Events(), len(heads))
	}
	for i, h := range heads {
		want := lins[i]
		if !opHasLin(byte(h & 7)) {
			want = 0
		}
		if dec.dheads[i] != h || dec.dlins[i] != want {
			t.Fatalf("event %d: got (head=%#x lin=%d), want (head=%#x lin=%d)",
				i, dec.dheads[i], dec.dlins[i], h, want)
		}
	}
	if len(dec.dheads) != len(heads) || len(dec.dlins) != len(heads) {
		t.Errorf("decoded %d heads and %d lins, want %d", len(dec.dheads), len(dec.dlins), len(heads))
	}
}

// TestReplayAllocs is the acceptance alloc guard: a steady-state replay
// allocates at most 5 times — the Result struct, the per-PE counter
// copy, the traffic slab, its row headers, and the cache-stats slice.
// Checksums are shared with the stream, and every classification
// buffer lives in the Replayer, the pool of PE-string blocks included.
// The configurations cover both framed paths a one-configuration call
// takes: the LRU stack (the paper's 8-frame LRU, a 4-frame LRU under
// Block layout on 12 PEs, 16 and 100 frames) and policy rows (FIFO,
// Clock, Random).
func TestReplayAllocs(t *testing.T) {
	base := sim.PaperConfig(16, 32)
	cfgs := []sim.Config{base}
	for _, pol := range []cache.Policy{cache.FIFO, cache.Clock, cache.Random} {
		c := base
		c.Policy = pol
		cfgs = append(cfgs, c)
	}
	for _, frames := range []int{16, 100} {
		wide := base
		wide.CacheElems = frames * base.PageSize
		cfgs = append(cfgs, wide)
	}
	blockSmall := sim.PaperConfig(12, 32)
	blockSmall.CacheElems, blockSmall.Layout = 4*32, partition.KindBlock
	cfgs = append(cfgs, blockSmall)
	for _, key := range []string{"k1", "k24", "k6"} {
		k, err := loops.ByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Capture(k, 400)
		if err != nil {
			t.Fatal(err)
		}
		r := NewReplayer()
		for _, cfg := range cfgs {
			if _, err := r.Run(st, cfg); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := r.Run(st, cfg); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 5 {
				t.Errorf("%s %+v: %.0f allocs per steady-state replay, want <= 5", key, cfg, allocs)
			}
		}
	}
}

// TestCaptureMemoizesChecksums: the captured checksums equal the direct
// run's, and replayed Results share (not copy) them.
func TestCaptureMemoizesChecksums(t *testing.T) {
	k, err := loops.ByKey("k18")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Capture(k, 100)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(k, 100, sim.PaperConfig(8, 32))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Checksums, want.Checksums) {
		t.Errorf("captured checksums %v != direct %v", st.Checksums, want.Checksums)
	}
	res, err := NewReplayer().Run(st, sim.PaperConfig(8, 32))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checksums) > 0 && &res.Checksums[0] != &st.Checksums[0] {
		t.Error("replay copied checksums instead of sharing the memoized slice")
	}
}
