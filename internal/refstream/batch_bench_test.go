package refstream

import (
	"os"
	"testing"
	"time"

	"repro/internal/loops"
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
