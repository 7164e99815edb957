package refstream_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/loops"
	"repro/internal/refstream"
	"repro/internal/sim"
)

// maxCaptureAllocs bounds the allocations of one capture on a warm
// scratch that has to rebind (the previous capture was another problem
// size): the Stream, its two exact-size columns, ArrayLens, the
// checksums, the kernel's array specs and the context bound to them,
// and — for a compiled loop nest — one frame. Nothing in the list
// scales with n or with the number of events.
const maxCaptureAllocs = 30

// TestCaptureSteadyStateAllocs guards the capture path the way
// TestScratchRunSteadyStateAllocs guards direct runs: on a warm
// scratch, a capture allocates a constant number of objects whatever
// the problem size — no per-event growth in the recording engine, no
// per-assignment allocation in the compiled IR body. Covers a built-in
// kernel and the benchmark's 2-D five-point nest.
func TestCaptureSteadyStateAllocs(t *testing.T) {
	k1, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Parse(nscaleNests[2].Source)
	if err != nil {
		t.Fatal(err)
	}
	nest, err := p.Kernel(48)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		k            *loops.Kernel
		small, large int
	}{
		{k1, 100, 2000},
		{nest, 6, 64},
	} {
		sc := sim.NewScratch()
		capture := func(n int) {
			if _, err := refstream.CaptureScratch(sc, c.k, n); err != nil {
				t.Fatal(err)
			}
		}
		capture(c.large + 1) // grow the slabs and the event columns once
		// Each measured run captures two sizes back to back, so every
		// capture rebinds: a repeat of one size is strictly cheaper.
		atSmall := testing.AllocsPerRun(10, func() { capture(c.small); capture(c.small + 1) }) / 2
		atLarge := testing.AllocsPerRun(10, func() { capture(c.large); capture(c.large + 1) }) / 2
		if atSmall != atLarge {
			t.Errorf("%s: %.1f allocs per capture at n=%d but %.1f at n=%d: capture allocations scale with problem size",
				c.k.Key, atSmall, c.small, atLarge, c.large)
		}
		if atLarge > maxCaptureAllocs {
			t.Errorf("%s: %.1f allocs per warm capture, want <= %d", c.k.Key, atLarge, maxCaptureAllocs)
		}
		t.Logf("%s: %.1f allocs per warm capture", c.k.Key, atLarge)
	}
}
