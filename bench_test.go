package repro

// One benchmark per figure and table of the paper's evaluation, plus
// the §9 ablations and engine micro-benchmarks. Figure benches report
// the reproduced headline metric (remote%) alongside time/op, so
// `go test -bench=.` regenerates the paper's numbers:
//
//	go test -bench=Figure -benchmem
//	go test -bench=Ablation
//	go test -bench=Engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/samem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

func benchKernel(b *testing.B, key string) *loops.Kernel {
	b.Helper()
	k, err := loops.ByKey(key)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

// benchSim runs one simulator configuration b.N times and reports the
// remote-read percentage it reproduces.
func benchSim(b *testing.B, key string, n int, cfg sim.Config) {
	b.Helper()
	k := benchKernel(b, key)
	var remote float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(k, n, cfg)
		if err != nil {
			b.Fatal(err)
		}
		remote = res.RemotePercent()
	}
	b.ReportMetric(remote, "remote%")
}

// BenchmarkFigure1 regenerates Figure 1 (Hydro Fragment, SD): the four
// published series at the paper's 8-PE point. Paper: no-cache ps32
// ~22%, cache ~1%.
func BenchmarkFigure1(b *testing.B) {
	for _, ps := range []int{32, 64} {
		for _, cached := range []bool{true, false} {
			name := fmt.Sprintf("ps=%d/cache=%v", ps, cached)
			b.Run(name, func(b *testing.B) {
				cfg := sim.PaperConfig(8, ps)
				if !cached {
					cfg.CacheElems = 0
				}
				benchSim(b, "k1", 1000, cfg)
			})
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2 (ICCG, CD). Paper: no-cache
// rises toward 100%, cache collapses it.
func BenchmarkFigure2(b *testing.B) {
	for _, npe := range []int{4, 16, 64} {
		for _, cached := range []bool{true, false} {
			b.Run(fmt.Sprintf("npe=%d/cache=%v", npe, cached), func(b *testing.B) {
				cfg := sim.PaperConfig(npe, 32)
				if !cached {
					cfg.CacheElems = 0
				}
				benchSim(b, "k2", 1024, cfg)
			})
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3 (2-D Explicit Hydrodynamics,
// CD+SD). Paper: 0-8% band, cached series declines with PEs.
func BenchmarkFigure3(b *testing.B) {
	for _, npe := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("npe=%d/cached", npe), func(b *testing.B) {
			benchSim(b, "k18", 0, sim.PaperConfig(npe, 32))
		})
	}
	b.Run("npe=16/nocache", func(b *testing.B) {
		benchSim(b, "k18", 0, sim.NoCacheConfig(16, 32))
	})
}

// BenchmarkFigure4 regenerates Figure 4 (General Linear Recurrence,
// RD). Paper: high remote ratios regardless of caching.
func BenchmarkFigure4(b *testing.B) {
	for _, cached := range []bool{true, false} {
		b.Run(fmt.Sprintf("npe=16/cache=%v", cached), func(b *testing.B) {
			cfg := sim.PaperConfig(16, 32)
			if !cached {
				cfg.CacheElems = 0
			}
			benchSim(b, "k6", 300, cfg)
		})
	}
}

// BenchmarkFigure5 regenerates Figure 5 (load balance at 64 PEs):
// reports the coefficient of variation of per-PE local reads — the
// paper's "evenly balanced loads".
func BenchmarkFigure5(b *testing.B) {
	k := benchKernel(b, "k18")
	var cv float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(k, 1022, sim.PaperConfig(64, 32))
		if err != nil {
			b.Fatal(err)
		}
		cv = stats.BalanceOf(res.PerPE.Extract(stats.LocalRead)).CV
	}
	b.ReportMetric(cv, "localCV")
}

// BenchmarkTableA regenerates the §7.1 classification of the paper's
// loop set; the metric is the fraction that match the published class.
func BenchmarkTableA(b *testing.B) {
	ks := loops.PaperSet()
	var agree float64
	for i := 0; i < b.N; i++ {
		agree = 0
		judged := 0
		for _, k := range ks {
			cls, err := Classify(k.Key, 0)
			if err != nil {
				b.Fatal(err)
			}
			if k.Class != loops.ClassUnknown {
				judged++
				if cls == k.Class {
					agree++
				}
			}
		}
		agree /= float64(judged)
	}
	b.ReportMetric(agree*100, "agree%")
}

// BenchmarkTableB regenerates the §8 summary: fraction of the paper's
// loops below 10% remote with the 256-element cache at 16 PEs.
func BenchmarkTableB(b *testing.B) {
	ks := loops.PaperSet()
	var below float64
	for i := 0; i < b.N; i++ {
		below = 0
		for _, k := range ks {
			res, err := sim.Run(k, 0, sim.PaperConfig(16, 32))
			if err != nil {
				b.Fatal(err)
			}
			if res.RemotePercent() < 10 {
				below++
			}
		}
		below = 100 * below / float64(len(ks))
	}
	b.ReportMetric(below, "below10%")
}

// BenchmarkAblationLayout compares modulo vs division partitioning on
// the skew-1 recurrence (§9).
func BenchmarkAblationLayout(b *testing.B) {
	for _, kind := range []partition.Kind{partition.KindModulo, partition.KindBlock} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := sim.NoCacheConfig(16, 32)
			cfg.Layout = kind
			benchSim(b, "k5", 1000, cfg)
		})
	}
}

// BenchmarkAblationCacheSize sweeps the cache size on the RD exemplar
// (§7.1.4: larger caches rescue RD).
func BenchmarkAblationCacheSize(b *testing.B) {
	for _, ce := range []int{0, 256, 4096, 16384} {
		b.Run(fmt.Sprintf("cache=%d", ce), func(b *testing.B) {
			cfg := sim.PaperConfig(16, 32)
			cfg.CacheElems = ce
			benchSim(b, "k6", 300, cfg)
		})
	}
}

// BenchmarkAblationPageSize sweeps the page size on the skewed
// exemplar (§9 page-size selectability).
func BenchmarkAblationPageSize(b *testing.B) {
	for _, ps := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("ps=%d", ps), func(b *testing.B) {
			benchSim(b, "k1", 1000, sim.PaperConfig(16, ps))
		})
	}
}

// BenchmarkAblationPolicy compares replacement policies on the cyclic
// exemplar.
func BenchmarkAblationPolicy(b *testing.B) {
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Clock, cache.Random} {
		b.Run(pol.String(), func(b *testing.B) {
			cfg := sim.PaperConfig(16, 32)
			cfg.Policy = pol
			benchSim(b, "k2", 1024, cfg)
		})
	}
}

// BenchmarkAblationPartialFill measures the cost of modeling §4's
// partially-filled page re-fetches.
func BenchmarkAblationPartialFill(b *testing.B) {
	for _, model := range []bool{false, true} {
		b.Run(fmt.Sprintf("model=%v", model), func(b *testing.B) {
			cfg := sim.PaperConfig(16, 32)
			cfg.ModelPartialFill = model
			benchSim(b, "k2", 1024, cfg)
		})
	}
}

// --- sweep-engine benchmarks ---
// `bash benchmark/run.sh` measures the same engines end to end, with
// dispersion, on named workloads (benchmark/README.md).

// sweepGrid is the benchmark grid: the paper's loop set across its PE
// axis, both page sizes, cache on and off.
func sweepGrid(b *testing.B) []sweep.Point {
	b.Helper()
	return sweep.Grid{
		Kernels:    loops.PaperSet(),
		PageSizes:  []int{32, 64},
		CacheElems: []int{0, 256},
	}.Points()
}

// benchSweep runs the grid b.N times under the given worker count,
// reporting points/s.
func benchSweep(b *testing.B, pts []sweep.Point, workers int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.RunOpts(context.Background(), pts, sweep.Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pts))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSweepGridSerial runs every point of the standard grid
// directly through one sim.Scratch: the direct-execution baseline
// every sweep benchmark is measured against.
func BenchmarkSweepGridSerial(b *testing.B) {
	pts := sweepGrid(b)
	scratch := sim.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pts {
			if _, err := scratch.Run(p.Kernel, p.N, p.Config); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(pts))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSweepGridBatchSerial sweeps the grid with one worker: each
// kernel executes once (capture) and each capture group is classified
// in a single decode pass over its stream
// (refstream.Replayer.RunBatchN). The ratio against
// BenchmarkSweepGridSerial is the execute-once + decode-once speedup.
func BenchmarkSweepGridBatchSerial(b *testing.B) {
	benchSweep(b, sweepGrid(b), 1)
}

// BenchmarkSweepGridBatchParallel runs the batch passes over the bounded
// worker pool — one group per task, groups spread across workers.
func BenchmarkSweepGridBatchParallel(b *testing.B) {
	benchSweep(b, sweepGrid(b), 0)
}

// wideGroup is one grid_wide-shaped capture group: a single (kernel,
// N) stream under 1 920 configurations of every eligibility class, so
// the whole sweep is one group's classification.
func wideGroup(k *loops.Kernel, n int) []sweep.Point {
	return sweep.Grid{
		Kernels:    []*loops.Kernel{k},
		N:          n,
		NPEs:       []int{1, 2, 3, 4, 6, 8, 12, 16, 32, 64},
		PageSizes:  []int{16, 32, 64, 128},
		CacheElems: []int{0, 64, 256, 2048},
		Layouts:    []partition.Kind{partition.KindModulo, partition.KindBlock, partition.KindBlockCyclic},
		Policies:   []cache.Policy{cache.LRU, cache.FIFO, cache.Clock, cache.Random},
	}.Points()
}

// BenchmarkSweepWideGroup sweeps one wide group with GOMAXPROCS
// workers; run it with -cpu=1,2 and the ratio is how well a single
// group's chunks spread over the queue's workers (docs/PERF.md).
func BenchmarkSweepWideGroup(b *testing.B) {
	benchSweep(b, wideGroup(benchKernel(b, "k2"), 0), 0)
}

// BenchmarkSweepScratchReuse isolates the per-point allocation savings
// of the worker-owned sim.Scratch against fresh sim.Run calls.
func BenchmarkSweepScratchReuse(b *testing.B) {
	k := benchKernel(b, "k18")
	cfg := sim.PaperConfig(16, 32)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(k, 400, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		s := sim.NewScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Run(k, 400, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- engine micro-benchmarks ---

// BenchmarkEngineSimThroughput measures counting-simulator speed in
// accesses per second over the full Livermore sweep kernel 18.
func BenchmarkEngineSimThroughput(b *testing.B) {
	k := benchKernel(b, "k18")
	cfg := sim.PaperConfig(16, 32)
	var accesses int64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(k, 400, cfg)
		if err != nil {
			b.Fatal(err)
		}
		accesses = res.Totals.Accesses()
	}
	b.ReportMetric(float64(accesses)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Maccess/s")
}

// BenchmarkEngineMachine measures the concurrent engine end to end
// (goroutines, tagged memory, messages).
func BenchmarkEngineMachine(b *testing.B) {
	k := benchKernel(b, "k1")
	cfg := machine.DefaultConfig(8, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := machine.Run(k, 1000, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCacheLookup measures the page-cache hot path.
func BenchmarkEngineCacheLookup(b *testing.B) {
	c, err := cache.New(256, 32, cache.LRU, 8)
	if err != nil {
		b.Fatal(err)
	}
	page := make([]float64, 32)
	for p := 0; p < 8; p++ {
		c.Insert(p, page, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(i&7, i&31)
	}
}

// BenchmarkEngineSamemWrite measures tagged-memory writes including
// waiter bookkeeping.
func BenchmarkEngineSamemWrite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i += 1024 {
		p := samem.NewPage("X", 0, 1024)
		limit := i + 1024
		if limit > b.N {
			limit = b.N
		}
		for j := 0; j < limit-i; j++ {
			if err := p.Write(j, 1.0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEnginePartitionOwner measures the owner-computes address
// check.
func BenchmarkEnginePartitionOwner(b *testing.B) {
	g, err := partition.NewGeometry(1<<20, 32)
	if err != nil {
		b.Fatal(err)
	}
	l, err := partition.NewModulo(64)
	if err != nil {
		b.Fatal(err)
	}
	var sink int
	for i := 0; i < b.N; i++ {
		sink += partition.OwnerOfElem(g, l, i&(1<<20-1))
	}
	_ = sink
}
