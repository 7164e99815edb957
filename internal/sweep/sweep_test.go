package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/partition"
	"repro/internal/sim"
)

func testGrid(t *testing.T) []Point {
	t.Helper()
	var ks []*loops.Kernel
	for _, key := range []string{"k1", "k2", "k12"} {
		k, err := loops.ByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	return Grid{
		Kernels:    ks,
		N:          128,
		NPEs:       []int{1, 4, 16},
		PageSizes:  []int{16, 32},
		CacheElems: []int{0, 256},
	}.Points()
}

// TestGridOrderAndDefaults pins the grid expansion: deterministic
// kernel-major order and paper-baseline defaults for empty axes.
func TestGridOrderAndDefaults(t *testing.T) {
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	pts := Grid{Kernels: []*loops.Kernel{k}}.Points()
	if len(pts) != len(PaperPEs) {
		t.Fatalf("default grid has %d points, want %d", len(pts), len(PaperPEs))
	}
	for i, p := range pts {
		if p.Config.NPE != PaperPEs[i] {
			t.Errorf("point %d: NPE %d, want %d", i, p.Config.NPE, PaperPEs[i])
		}
		want := sim.PaperConfig(PaperPEs[i], 32)
		if p.Config != want {
			t.Errorf("point %d: config %+v, want paper baseline %+v", i, p.Config, want)
		}
	}
	full := testGrid(t)
	if len(full) != 3*3*2*2 {
		t.Fatalf("grid has %d points, want %d", len(full), 3*3*2*2)
	}
	// Kernel-major, then NPE, page size, cache size.
	if full[0].Kernel.Key != "k1" || full[11].Kernel.Key != "k1" || full[12].Kernel.Key != "k2" {
		t.Errorf("grid is not kernel-major: %v ... %v", full[0], full[12])
	}
	if full[0].Config.CacheElems != 0 || full[1].Config.CacheElems != 256 {
		t.Errorf("cache axis not innermost: %v, %v", full[0], full[1])
	}
}

// TestRunMatchesSerial is the determinism guarantee: a concurrent sweep
// returns, in grid order, results bit-identical to running sim.Run
// serially on each point — and two concurrent sweeps agree with each
// other.
func TestRunMatchesSerial(t *testing.T) {
	pts := testGrid(t)
	par1, err := RunOpts(context.Background(), pts, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	par2, err := RunOpts(context.Background(), pts, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunOpts(context.Background(), pts, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		want, err := sim.Run(p.Kernel, p.N, p.Config)
		if err != nil {
			t.Fatal(err)
		}
		for run, got := range map[string]*sim.Result{"workers=8": par1[i], "workers=3": par2[i], "workers=1": serial[i]} {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: point %d (%s) differs from serial sim.Run", run, i, p)
			}
		}
	}
}

// TestFirstErrorPropagation injects a failing point mid-grid and
// requires (a) the sweep to fail, (b) the reported error to identify
// the lowest-index failing point deterministically, even with many
// workers racing past it.
func TestFirstErrorPropagation(t *testing.T) {
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	pts := Grid{Kernels: []*loops.Kernel{k}, N: 64, NPEs: []int{1, 2, 4, 8}}.Points()
	bad := sim.PaperConfig(8, 32)
	bad.Policy = cache.Policy(99)
	pts[1].Config = bad    // first failure
	pts[3].Config.NPE = -1 // second failure, must not win
	for _, workers := range []int{1, 4} {
		_, err := RunOpts(context.Background(), pts, Options{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: failing grid succeeded", workers)
		}
		if !strings.Contains(err.Error(), "point 1") {
			t.Errorf("workers=%d: error is not the lowest-index failure: %v", workers, err)
		}
	}
}

// TestRunCancellation verifies an external cancel stops the sweep
// promptly and surfaces context.Canceled.
func TestRunCancellation(t *testing.T) {
	k, err := loops.ByKey("k6")
	if err != nil {
		t.Fatal(err)
	}
	// A long grid that would take a while serially.
	var pts []Point
	for i := 0; i < 500; i++ {
		pts = append(pts, Point{Kernel: k, N: 200, Config: sim.PaperConfig(16, 32)})
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res []*sim.Result
	var runErr error
	go func() {
		res, runErr = RunOpts(ctx, pts, Options{Workers: 2})
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not stop after cancellation")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", runErr)
	}
	if res != nil {
		t.Error("canceled sweep returned results")
	}
}

// TestMap covers the experiment-level fan-out: input order preserved,
// at most GOMAXPROCS calls in flight, lowest-index error wins.
func TestMap(t *testing.T) {
	// More items than workers on every host, so the bound is exercised.
	workers := runtime.GOMAXPROCS(0)
	items := make([]int, 2*workers+1)
	want := make([]int, len(items))
	for i := range items {
		items[i] = 10 * (i + 1)
		want[i] = 2 * items[i]
	}
	var inFlight, peak atomic.Int32
	out, err := Map(context.Background(), items, func(ctx context.Context, i, item int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		defer inFlight.Add(-1)
		time.Sleep(time.Millisecond)
		return item * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("out = %v, want %v", out, want)
	}
	if peak.Load() > int32(workers) {
		t.Errorf("concurrency peaked at %d with %d workers", peak.Load(), workers)
	}

	_, err = Map(context.Background(), items, func(ctx context.Context, i, item int) (int, error) {
		if i >= 2 {
			return 0, fmt.Errorf("boom at %d", i)
		}
		return item, nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom at 2") {
		t.Errorf("error = %v, want lowest-index boom", err)
	}
}

// TestRunEmptyAndDegenerate covers the edges: empty grids succeed with
// no results; nil kernels are reported, not dereferenced.
func TestRunEmptyAndDegenerate(t *testing.T) {
	res, err := RunOpts(context.Background(), nil, Options{})
	if err != nil || len(res) != 0 {
		t.Errorf("empty sweep: %v, %v", res, err)
	}
	_, err = RunOpts(context.Background(), []Point{{N: 10, Config: sim.PaperConfig(4, 32)}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "nil kernel") {
		t.Errorf("nil kernel error = %v", err)
	}
}

// TestPointString pins the error-message identity of a point.
func TestPointString(t *testing.T) {
	k, err := loops.ByKey("k2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.PaperConfig(16, 64)
	cfg.Layout = partition.KindBlock
	got := Point{Kernel: k, N: 512, Config: cfg}.String()
	want := "k2/n=512/npe=16/ps=64/cache=256/block/lru"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}

	// Block-cyclic points name their run, partial-fill points say so:
	// otherwise two distinct points read the same in an error.
	bc := sim.PaperConfig(4, 32)
	bc.Layout, bc.LayoutRun = partition.KindBlockCyclic, 2
	pf := sim.PaperConfig(4, 32)
	pf.ModelPartialFill = true
	for _, c := range []struct {
		cfg  sim.Config
		want string
	}{
		{bc, "k2/n=0/npe=4/ps=32/cache=256/blockcyclic/lru/run=2"},
		{pf, "k2/n=0/npe=4/ps=32/cache=256/modulo/lru+partial"},
	} {
		if got := (Point{Kernel: k, Config: c.cfg}).String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// TestGridSizeSaturates pins the overflow rule front ends bound grids
// by: axes whose product is 2^64 read math.MaxInt, not the wrapped 0.
func TestGridSizeSaturates(t *testing.T) {
	g := Grid{
		Kernels:    make([]*loops.Kernel, 1<<11),
		NPEs:       make([]int, 1<<11),
		PageSizes:  make([]int, 1<<11),
		CacheElems: make([]int, 1<<11),
		Layouts:    make([]partition.Kind, 1<<10),
		Policies:   make([]cache.Policy, 1<<10),
	}
	if got := g.Size(); got != math.MaxInt {
		t.Errorf("Size = %d, want math.MaxInt", got)
	}
	g = Grid{Kernels: make([]*loops.Kernel, 3), PageSizes: []int{16, 32}}
	if got := g.Size(); got != 3*len(PaperPEs)*2 {
		t.Errorf("Size = %d, want %d", got, 3*len(PaperPEs)*2)
	}
}
