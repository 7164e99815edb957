package refstream

import (
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/partition"
	"repro/internal/sim"
)

// gridGroup is one kernel's capture group on the standard bench grid:
// NPEs {1..64} × page sizes {32,64} × cache {0,256}.
func gridGroup() []sim.Config {
	var cfgs []sim.Config
	for _, npe := range []int{1, 2, 4, 8, 16, 32, 64} {
		for _, ps := range []int{32, 64} {
			for _, ce := range []int{0, 256} {
				c := sim.PaperConfig(npe, ps)
				c.CacheElems = ce
				if ce == 0 {
					c = sim.NoCacheConfig(npe, ps)
				}
				cfgs = append(cfgs, c)
			}
		}
	}
	return cfgs
}

// wideGroup is a grid_wide-shaped capture group: 1 920 configurations
// of every path class, heavy enough that Cut splits it into dozens of
// chunks — the shape RunBatchN's fan-out exists for. (gridGroup's 28
// configurations are one chunk at any budget.)
func wideGroup() []sim.Config {
	var cfgs []sim.Config
	for _, npe := range []int{1, 2, 3, 4, 6, 8, 12, 16, 32, 64} {
		for _, ps := range []int{16, 32, 64, 128} {
			for _, ce := range []int{0, 64, 256, 2048} {
				for _, lay := range []partition.Kind{partition.KindModulo, partition.KindBlock, partition.KindBlockCyclic} {
					for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Clock, cache.Random} {
						cfgs = append(cfgs, sim.Config{NPE: npe, PageSize: ps, CacheElems: ce, Layout: lay, LayoutRun: 2, Policy: pol})
					}
				}
			}
		}
	}
	return cfgs
}

func benchKernelStream(b *testing.B) *Stream {
	b.Helper()
	k, err := loops.ByKey("k1")
	if err != nil {
		b.Fatal(err)
	}
	st, err := Capture(k, 0) // default problem size, as on the bench grid
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func BenchmarkGroupDirect(b *testing.B) {
	k, _ := loops.ByKey("k1")
	cfgs := gridGroup()
	sc := sim.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			if _, err := sc.Run(k, 0, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkGroupSingleReplay(b *testing.B) {
	st := benchKernelStream(b)
	cfgs := gridGroup()
	r := NewReplayer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			if _, err := r.Run(st, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkGroupBatchReplay(b *testing.B) {
	st := benchKernelStream(b)
	cfgs := gridGroup()
	r := NewReplayer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunBatchN(st, cfgs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupBatchReplayPar classifies a wide group through
// RunBatchN's fan-out: the group's chunks spread across GOMAXPROCS
// workers (run with -cpu=1,4,8 to see the scaling curve; at -cpu=1 the
// chunks run one after another on the calling goroutine).
func BenchmarkGroupBatchReplayPar(b *testing.B) {
	st := benchKernelStream(b)
	cfgs := wideGroup()
	r := NewReplayer()
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunBatchN(st, cfgs, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBatchNoSlowerThanSingleReplay is the CI perf gate: classifying a
// capture group in one batch pass must never regress below classifying
// it in one-configuration calls (Run, each building its own read column
// and walking it alone) — if it does, the batch path has lost its
// reason to exist. Timing assertions
// are unreliable on shared runners, so the gate is opt-in
// (REFSTREAM_PERF_GATE=1, set by the bench-smoke CI job), compares
// best-of-N times measured in the same process, and allows a 1.25x
// noise margin — batch is expected to clear the bar by about 1.5x, so
// a trip means a real structural regression, not jitter.
func TestBatchNoSlowerThanSingleReplay(t *testing.T) {
	if os.Getenv("REFSTREAM_PERF_GATE") == "" {
		t.Skip("perf gate disabled; set REFSTREAM_PERF_GATE=1 to run")
	}
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Capture(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := gridGroup()
	r := NewReplayer()

	single := func() {
		for _, cfg := range cfgs {
			if _, err := r.Run(st, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	batch := func() {
		if _, err := r.RunBatchN(st, cfgs, 1); err != nil {
			t.Fatal(err)
		}
	}
	best := func(f func()) time.Duration {
		f() // warm memos, slabs, scratch
		bestD := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}

	singleD, batchD := best(single), best(batch)
	t.Logf("group of %d configs: single replay %v, batch %v (%.2fx)",
		len(cfgs), singleD, batchD, float64(singleD)/float64(batchD))
	if float64(batchD) > 1.25*float64(singleD) {
		t.Fatalf("batch pass (%v) slower than one-configuration calls (%v): the decode-once path has regressed", batchD, singleD)
	}
}

// TestBatchParNoSlowerThanSerial extends the perf gate to RunBatchN's
// fan-out: with more than one core available, spreading a wide group's
// chunks across workers must never cost wall-clock time versus running
// them on one — if it does, the fan-out overhead (worker setup, slab
// growth, result stitching) has outgrown its benefit. Same opt-in and
// methodology as TestBatchNoSlowerThanSingleReplay: best-of-5 in one
// process with a 1.25x noise margin. On a single-core host the
// comparison is meaningless (goroutines serialize and the margin only
// measures scheduler jitter), so the gate skips there.
func TestBatchParNoSlowerThanSerial(t *testing.T) {
	if os.Getenv("REFSTREAM_PERF_GATE") == "" {
		t.Skip("perf gate disabled; set REFSTREAM_PERF_GATE=1 to run")
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		t.Skip("GOMAXPROCS=1: no parallelism to gate on this host")
	}
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Capture(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := wideGroup()
	r := NewReplayer()

	serial := func() {
		if _, err := r.RunBatchN(st, cfgs, 1); err != nil {
			t.Fatal(err)
		}
	}
	par := func() {
		if _, err := r.RunBatchN(st, cfgs, workers); err != nil {
			t.Fatal(err)
		}
	}
	best := func(f func()) time.Duration {
		f() // warm memos, slabs, per-worker scratch
		bestD := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}

	serialD, parD := best(serial), best(par)
	t.Logf("group of %d configs at %d workers: serial batch %v, parallel %v (%.2fx)",
		len(cfgs), workers, serialD, parD, float64(serialD)/float64(parD))
	if float64(parD) > 1.25*float64(serialD) {
		t.Fatalf("parallel batch pass (%v) slower than serial (%v) at %d workers: fan-out overhead has regressed", parD, serialD, workers)
	}
}
