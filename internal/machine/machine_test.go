package machine

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/loops"
	"repro/internal/sim"
)

func mustKernel(t *testing.T, key string) *loops.Kernel {
	t.Helper()
	k, err := loops.ByKey(key)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestConfigValidation(t *testing.T) {
	k := mustKernel(t, "k1")
	if _, err := Run(k, 64, Config{NPE: 0, PageSize: 32}); err == nil {
		t.Error("zero PEs accepted")
	}
	if _, err := Run(k, 64, Config{NPE: 4, PageSize: 0}); err == nil {
		t.Error("zero page size accepted")
	}
	bad := DefaultConfig(4, 32)
	bad.Topology = Topo(99)
	if _, err := Run(k, 64, bad); err == nil {
		t.Error("unknown topology accepted")
	}
	cube := DefaultConfig(6, 32)
	cube.Topology = TopoHypercube
	if _, err := Run(k, 64, cube); err == nil {
		t.Error("non-power-of-two hypercube accepted")
	}
}

// TestAllKernelsMatchSequentialReference is the determinacy theorem of
// single assignment made executable: every kernel, run concurrently on
// 4 PEs with real message passing and no explicit synchronization,
// produces the sequential reference values.
func TestAllKernelsMatchSequentialReference(t *testing.T) {
	for _, k := range loops.All() {
		k := k
		t.Run(k.Key, func(t *testing.T) {
			t.Parallel()
			n := k.DefaultN
			if n > 128 {
				n = 128
			}
			seq, err := loops.RunSeq(k, n)
			if err != nil {
				t.Fatalf("seq: %v", err)
			}
			res, err := Run(k, n, DefaultConfig(4, 16))
			if err != nil {
				t.Fatalf("machine: %v", err)
			}
			for _, name := range k.Outputs {
				sv, sd := seq.Values[name], seq.DefinedOf[name]
				mv, md := res.Values[name], res.DefinedOf[name]
				for i := range sv {
					if sd[i] != md[i] {
						t.Fatalf("%s[%d]: defined mismatch seq=%v machine=%v", name, i, sd[i], md[i])
					}
					if !sd[i] {
						continue
					}
					// Reduction results may differ in summation order;
					// everything else must be bit-identical.
					if diff := math.Abs(sv[i] - mv[i]); diff > 1e-9*(1+math.Abs(sv[i])) {
						t.Fatalf("%s[%d]: seq=%v machine=%v", name, i, sv[i], mv[i])
					}
				}
			}
		})
	}
}

func TestValuesDeterministicAcrossRuns(t *testing.T) {
	// Single assignment makes results independent of PE interleaving.
	k := mustKernel(t, "k18")
	first, err := Run(k, 64, DefaultConfig(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		res, err := Run(k, 64, DefaultConfig(8, 16))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range k.Outputs {
			a, b := first.Values[name], res.Values[name]
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d: %s[%d] drifted: %v vs %v", trial, name, i, a[i], b[i])
				}
			}
		}
	}
}

func TestCrossPEPipelineRecurrence(t *testing.T) {
	// k11's running sum forces PE p+1 to wait for PE p's last element:
	// the deferred-read protocol must pipeline it, not deadlock.
	k := mustKernel(t, "k11")
	res, err := Run(k, 256, DefaultConfig(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	if res.PageRequests == 0 {
		t.Error("expected remote page requests across the recurrence")
	}
	if res.PageRequests != res.PageReplies {
		t.Errorf("requests %d != replies %d", res.PageRequests, res.PageReplies)
	}
	seq, err := loops.RunSeq(k, 256)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Values["X"][256]
	got := res.Values["X"][256]
	if want != got {
		t.Errorf("X[256] = %v, want %v", got, want)
	}
}

func TestAccountingConsistentWithCountingSimulator(t *testing.T) {
	// Ownership is deterministic, so writes and local reads must agree
	// exactly with the counting simulator; cached+remote together make
	// up the same non-local read total (their split may differ because
	// the machine sees genuine partial fills).
	for _, key := range []string{"k1", "k5", "k12", "k18", "k2"} {
		k := mustKernel(t, key)
		n := 128
		mres, err := Run(k, n, DefaultConfig(4, 16))
		if err != nil {
			t.Fatalf("%s machine: %v", key, err)
		}
		scfg := sim.PaperConfig(4, 16)
		sres, err := sim.Run(k, n, scfg)
		if err != nil {
			t.Fatalf("%s sim: %v", key, err)
		}
		if mres.Totals.Writes != sres.Totals.Writes {
			t.Errorf("%s: writes machine=%d sim=%d", key, mres.Totals.Writes, sres.Totals.Writes)
		}
		if mres.Totals.LocalReads != sres.Totals.LocalReads {
			t.Errorf("%s: local machine=%d sim=%d", key, mres.Totals.LocalReads, sres.Totals.LocalReads)
		}
		mNonLocal := mres.Totals.CachedReads + mres.Totals.RemoteReads
		sNonLocal := sres.Totals.CachedReads + sres.Totals.RemoteReads
		if mNonLocal != sNonLocal {
			t.Errorf("%s: non-local machine=%d sim=%d", key, mNonLocal, sNonLocal)
		}
	}
}

// checkMachineMatchesSimulator closes the loop between the concurrent
// machine and the counting simulator on k1 (Hydro Fragment), whose read
// arrays are fully defined at initialization: every page the machine
// fetches is complete, so no partial fill can split the two and all
// four totals — writes, local, cached, remote — must agree exactly.
// Caches are private per PE and each PE sees the same deterministic
// access order in both engines, so LRU behaves identically.
func checkMachineMatchesSimulator(t *testing.T, npe int, cached bool) {
	t.Helper()
	k := mustKernel(t, "k1")
	const n, ps = 500, 32
	mcfg, scfg := DefaultConfig(npe, ps), sim.PaperConfig(npe, ps)
	if !cached {
		mcfg.CacheElems, scfg = 0, sim.NoCacheConfig(npe, ps)
	}
	mres, err := Run(k, n, mcfg)
	if err != nil {
		t.Fatalf("npe=%d cached=%v machine: %v", npe, cached, err)
	}
	sres, err := sim.Run(k, n, scfg)
	if err != nil {
		t.Fatalf("npe=%d cached=%v sim: %v", npe, cached, err)
	}
	if mres.Totals != sres.Totals {
		t.Errorf("npe=%d cached=%v: machine %+v != simulator %+v", npe, cached, mres.Totals, sres.Totals)
	}
	if mres.Totals.RemoteReads == 0 {
		t.Errorf("npe=%d cached=%v: no remote reads; test exercises nothing", npe, cached)
	}
	if cached && mres.Totals.CachedReads == 0 {
		t.Errorf("npe=%d: no cached reads; test exercises nothing", npe)
	}
}

func TestMachineMatchesSimulatorExactly(t *testing.T) {
	t.Run("NoCache", func(t *testing.T) {
		for _, npe := range []int{4, 8} {
			checkMachineMatchesSimulator(t, npe, false)
		}
	})
	t.Run("Cached", func(t *testing.T) {
		checkMachineMatchesSimulator(t, 4, true)
	})
}

func TestDoubleWriteAborts(t *testing.T) {
	bad := &loops.Kernel{
		Key: "dw", Name: "double write", DefaultN: 32, MinN: 32,
		Arrays: func(n int) []loops.Spec {
			return []loops.Spec{{Name: "X", Dims: []int{n}}}
		},
		Run: func(c *loops.Ctx, n int) {
			x := c.A("X")
			x.Set(func() float64 { return 1 }, 3)
			x.Set(func() float64 { return 2 }, 3)
		},
		Outputs: []string{"X"},
	}
	_, err := Run(bad, 32, DefaultConfig(2, 16))
	if err == nil {
		t.Fatal("double write not detected")
	}
	if !strings.Contains(err.Error(), "double write") {
		t.Errorf("error = %v", err)
	}
}

func TestSelfReadBeforeWriteAborts(t *testing.T) {
	// A kernel that reads its own future output must abort cleanly, not
	// hang on a deferred read that can never be satisfied.
	bad := &loops.Kernel{
		Key: "rbw", Name: "read before write", DefaultN: 32, MinN: 32,
		Arrays: func(n int) []loops.Spec {
			return []loops.Spec{{Name: "X", Dims: []int{n}}}
		},
		Run: func(c *loops.Ctx, n int) {
			x := c.A("X")
			x.Set(func() float64 { return x.Get(5) }, 4) // same page: owner reads own undefined cell
		},
		Outputs: []string{"X"},
	}
	_, err := Run(bad, 32, DefaultConfig(2, 16))
	if err == nil {
		t.Fatal("read-before-write not detected")
	}
	if !strings.Contains(err.Error(), "read-before-write") {
		t.Errorf("error = %v", err)
	}
}

func TestReductionAcrossPEs(t *testing.T) {
	k := mustKernel(t, "k3")
	n := 200
	res, err := Run(k, n, DefaultConfig(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := loops.RunSeq(k, n)
	if err != nil {
		t.Fatal(err)
	}
	got, want := res.Values["QOUT"][0], seq.Values["QOUT"][0]
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Errorf("reduced sum = %v, want %v", got, want)
	}
	// 7 sends to the host plus 7 broadcasts.
	if res.ReduceMsgs != 14 {
		t.Errorf("ReduceMsgs = %d, want 14", res.ReduceMsgs)
	}
}

func TestArgMinReductionDeterministic(t *testing.T) {
	k := mustKernel(t, "k24")
	seq, err := loops.RunSeq(k, 300)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		res, err := Run(k, 300, DefaultConfig(8, 16))
		if err != nil {
			t.Fatal(err)
		}
		if res.Values["MOUT"][0] != seq.Values["MOUT"][0] {
			t.Fatalf("argmin = %v, want %v", res.Values["MOUT"][0], seq.Values["MOUT"][0])
		}
	}
}

func TestTopologiesCarryTraffic(t *testing.T) {
	k := mustKernel(t, "k1")
	for _, topo := range []Topo{TopoBus, TopoRing, TopoMesh, TopoHypercube} {
		cfg := DefaultConfig(8, 16)
		cfg.Topology = topo
		res, err := Run(k, 256, cfg)
		if err != nil {
			t.Fatalf("topo %d: %v", int(topo), err)
		}
		if res.Net.Sent == 0 || res.Net.Hops == 0 {
			t.Errorf("topo %d: no traffic recorded: %+v", int(topo), res.Net)
		}
		if res.Net.Sent != res.Net.Received {
			t.Errorf("topo %d: sent %d != received %d", int(topo), res.Net.Sent, res.Net.Received)
		}
	}
}

func TestSinglePENoTraffic(t *testing.T) {
	k := mustKernel(t, "k18")
	res, err := Run(k, 64, DefaultConfig(1, 32))
	if err != nil {
		t.Fatal(err)
	}
	if res.PageRequests != 0 {
		t.Errorf("1-PE run sent %d page requests", res.PageRequests)
	}
	if res.Totals.RemoteReads != 0 || res.Totals.CachedReads != 0 {
		t.Errorf("1-PE run classified non-local reads: %+v", res.Totals)
	}
}

func TestNoCacheMachineStillCorrect(t *testing.T) {
	k := mustKernel(t, "k7")
	cfg := DefaultConfig(4, 16)
	cfg.CacheElems = 0
	res, err := Run(k, 128, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.CachedReads != 0 {
		t.Errorf("cached reads without a cache: %d", res.Totals.CachedReads)
	}
	seq, err := loops.RunSeq(k, 128)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksums[0].Sum != seq.Checksums[0].Sum {
		t.Error("no-cache run produced different values")
	}
}

func TestManyPEsMorePEsThanPages(t *testing.T) {
	// Degenerate but legal: more PEs than pages; idle PEs must not hang
	// reductions or teardown.
	k := mustKernel(t, "k3")
	res, err := Run(k, 40, DefaultConfig(16, 32))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := loops.RunSeq(k, 40)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Values["QOUT"][0]-seq.Values["QOUT"][0]) > 1e-9 {
		t.Error("reduction wrong with idle PEs")
	}
}

func TestNoGoroutineLeaks(t *testing.T) {
	// Every handler, compute and deferred-reply goroutine must exit by
	// the time Run returns — including on the error paths.
	k := mustKernel(t, "k2")
	if _, err := Run(k, 256, DefaultConfig(8, 16)); err != nil {
		t.Fatal(err)
	}
	bad := &loops.Kernel{
		Key: "dw2", Name: "double write", DefaultN: 32, MinN: 32,
		Arrays: func(n int) []loops.Spec {
			return []loops.Spec{{Name: "X", Dims: []int{n}}}
		},
		Run: func(c *loops.Ctx, n int) {
			x := c.A("X")
			x.Set(func() float64 { return 1 }, 3)
			x.Set(func() float64 { return 2 }, 3)
		},
		Outputs: []string{"X"},
	}
	if _, err := Run(bad, 32, DefaultConfig(4, 16)); err == nil {
		t.Fatal("expected error")
	}
	// Allow the runtime a moment to reap exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	base := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			break
		}
		time.Sleep(10 * time.Millisecond)
		base = runtime.NumGoroutine()
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := Run(k, 128, DefaultConfig(8, 16)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Errorf("goroutines grew %d -> %d across runs", before, after)
	}
}

func TestDeadlockWatchdog(t *testing.T) {
	// A kernel that reads a remote cell no one ever writes would block
	// its reader forever; the watchdog must convert the hang into an
	// error and tear the machine down cleanly.
	hang := &loops.Kernel{
		Key: "hang", Name: "unsatisfiable read", DefaultN: 64, MinN: 64,
		Arrays: func(n int) []loops.Spec {
			return []loops.Spec{
				{Name: "A", Dims: []int{n}}, // page 0 owned by PE 0; A[5] never written
				{Name: "B", Dims: []int{2 * n}},
			}
		},
		Run: func(c *loops.Ctx, n int) {
			b, a := c.A("B"), c.A("A")
			// Owner of B's page 1 is PE 1: it must fetch A[5] from PE 0,
			// which never defines it.
			b.Set(func() float64 { return a.Get(5) }, 32)
		},
		Outputs: []string{"B"},
	}
	cfg := DefaultConfig(2, 32)
	cfg.DeadlockTimeout = 50 * time.Millisecond
	start := time.Now()
	_, err := Run(hang, 64, cfg)
	if err == nil {
		t.Fatal("unsatisfiable read did not error")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error = %v, want deadlock diagnosis", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("watchdog took %v", elapsed)
	}
}

func TestWatchdogDoesNotFireOnHealthyRuns(t *testing.T) {
	// A tight timeout must not kill a healthy pipeline: progress (writes
	// and replies) resets the strike counter.
	k := mustKernel(t, "k11")
	cfg := DefaultConfig(8, 16)
	cfg.DeadlockTimeout = 50 * time.Millisecond
	res, err := Run(k, 2048, cfg)
	if err != nil {
		t.Fatalf("healthy run killed: %v", err)
	}
	if res.Totals.Writes == 0 {
		t.Error("no work done")
	}
}

func TestWatchdogDisabled(t *testing.T) {
	k := mustKernel(t, "k1")
	cfg := DefaultConfig(4, 32)
	cfg.DeadlockTimeout = -1
	if _, err := Run(k, 256, cfg); err != nil {
		t.Fatal(err)
	}
}
