package sweep

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/refstream"
	"repro/internal/sim"
)

// mixedGrid builds a grid that exercises every planner decision: two
// multi-point replay groups, each with a point whose representative is
// another point's configuration, a singleton group (one point at a
// unique problem size), and ineligible partial-fill points interleaved.
func mixedGrid(t *testing.T) []Point {
	t.Helper()
	k1, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	k24, err := loops.ByKey("k24") // reduction-heavy
	if err != nil {
		t.Fatal(err)
	}
	pts := Grid{
		Kernels: []*loops.Kernel{k1, k24},
		N:       200,
		NPEs:    []int{1, 4, 16},
	}.Points()
	// Ineligible ablation point mid-grid: must fall back to direct
	// execution under every mode.
	pf := sim.PaperConfig(8, 32)
	pf.ModelPartialFill = true
	pts = append(pts[:3], append([]Point{{Kernel: k1, N: 200, Config: pf}}, pts[3:]...)...)
	// Class-mates: block-cyclic(1) is modulo, and on one PE layout,
	// cache and policy are inert.
	bc := sim.PaperConfig(4, 32)
	bc.Layout = partition.KindBlockCyclic
	one := sim.PaperConfig(1, 32)
	one.Layout, one.Policy, one.CacheElems = partition.KindBlock, cache.FIFO, 1000
	pts = append(pts, Point{Kernel: k1, N: 200, Config: bc}, Point{Kernel: k24, N: 200, Config: one})
	// Singleton group: the only point at (k1, 333).
	pts = append(pts, Point{Kernel: k1, N: 333, Config: sim.PaperConfig(2, 32)})
	return pts
}

// TestReplayModesBitIdentical is the planner's determinism contract:
// the replay mode changes how points are executed, never what they
// return. Every mode, at several worker counts, must produce
// results bit-identical to each other and to serial direct runs.
func TestReplayModesBitIdentical(t *testing.T) {
	pts := mixedGrid(t)
	baseline, err := RunOpts(context.Background(), pts, Options{Workers: 1, Replay: ReplayOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ReplayMode{ReplayAuto, ReplayOn} {
		for _, workers := range []int{1, 4} {
			got, err := RunOpts(context.Background(), pts, Options{Workers: workers, Replay: mode})
			if err != nil {
				t.Fatalf("replay=%s workers=%d: %v", mode, workers, err)
			}
			for i := range pts {
				if !reflect.DeepEqual(got[i], baseline[i]) {
					t.Errorf("replay=%s workers=%d: point %d (%s) differs from direct execution",
						mode, workers, i, pts[i])
				}
			}
		}
	}
}

// TestReplayPlanCounters audits the planner through the metrics
// registry: captures happen exactly once per group no matter how many
// workers drain the queue, every point is accounted replay or direct,
// only distinct representatives are classified, and the batch
// replayer's group counters count capture groups — one per group that
// is cut. Progress and the point counters count points, not
// representatives.
func TestReplayPlanCounters(t *testing.T) {
	pts := mixedGrid(t)
	// mixedGrid has groups (k1,200) and (k24,200) of 4 points and 3
	// representatives each, singleton (k1,333), and one ineligible point.
	cases := []struct {
		mode     ReplayMode
		captures int64
		replayed int64
		distinct int64
		batched  int64 // groups the batch replayer cut and classified
	}{
		{ReplayOn, 3, 9, 7, 3},   // singleton group still captures and replays
		{ReplayAuto, 2, 8, 6, 2}, // singleton runs direct: capture would not amortize
		{ReplayOff, 0, 0, 0, 0},
	}
	for _, c := range cases {
		reg := obs.NewRegistry()
		var last Progress
		opts := Options{Workers: 8, Metrics: reg, Replay: c.mode, Progress: func(p Progress) { last = p }}
		if _, err := RunOpts(context.Background(), pts, opts); err != nil {
			t.Fatalf("replay=%s: %v", c.mode, err)
		}
		if last.Done != len(pts) || reg.Counter(MetricPointsDone).Value() != int64(len(pts)) {
			t.Errorf("replay=%s: progress %+v, %s = %d; want every one of %d points done",
				c.mode, last, MetricPointsDone, reg.Counter(MetricPointsDone).Value(), len(pts))
		}
		if got := reg.Counter(MetricStreamCaptures).Value(); got != c.captures {
			t.Errorf("replay=%s: %s = %d, want %d", c.mode, MetricStreamCaptures, got, c.captures)
		}
		if got := reg.Counter(MetricReplayPoints).Value(); got != c.replayed {
			t.Errorf("replay=%s: %s = %d, want %d", c.mode, MetricReplayPoints, got, c.replayed)
		}
		if got := reg.Counter(MetricDistinctConfigs).Value(); got != c.distinct {
			t.Errorf("replay=%s: %s = %d, want %d", c.mode, MetricDistinctConfigs, got, c.distinct)
		}
		direct := int64(len(pts)) - c.replayed
		if got := reg.Counter(MetricDirectPoints).Value(); got != direct {
			t.Errorf("replay=%s: %s = %d, want %d", c.mode, MetricDirectPoints, got, direct)
		}
		if got := reg.Counter(refstream.MetricBatchGroups).Value(); got != c.batched {
			t.Errorf("replay=%s: %s = %d, want %d", c.mode, refstream.MetricBatchGroups, got, c.batched)
		}
		// These three-point groups are far under the cost target: one
		// chunk each, so the partitions histogram reads 1 per group.
		if h := reg.Snapshot().Histograms[refstream.MetricBatchPartitions]; h.Count != c.batched || h.Sum != c.batched {
			t.Errorf("replay=%s: %s = %d observations summing to %d, want %d of 1",
				c.mode, refstream.MetricBatchPartitions, h.Count, h.Sum, c.batched)
		}
	}
}

// TestReplayErrorDeterminism re-runs the lowest-index error contract
// with the planner engaged: invalid configurations fail through the
// replay path with the same deterministic winner as direct execution.
func TestReplayErrorDeterminism(t *testing.T) {
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
		_, err := RunOpts(context.Background(), pts, Options{Workers: workers, Replay: ReplayOn})
		if err == nil {
			t.Fatalf("workers=%d: failing grid succeeded", workers)
		}
		if !strings.Contains(err.Error(), "point 1") {
			t.Errorf("workers=%d: error is not the lowest-index failure: %v", workers, err)
		}
	}
}

// TestCaptureOverlapCounter pins sweep.capture_overlap: it counts
// captures that finished while another worker was classifying, so it
// is bounded by stream_captures, a one-worker sweep — however many
// groups — has nobody to overlap with, and several workers change
// neither results nor the planner counters.
func TestCaptureOverlapCounter(t *testing.T) {
	k1, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := loops.ByKey("k2")
	if err != nil {
		t.Fatal(err)
	}

	pts := Grid{Kernels: []*loops.Kernel{k1, k2}, N: 150, NPEs: []int{1, 4, 16}}.Points()
	pts = append(pts, Grid{Kernels: []*loops.Kernel{k1, k2}, N: 250, NPEs: []int{2, 8}}.Points()...)

	// One worker: every capture finishes with no other worker running,
	// so the counter must stay zero whatever the number of groups.
	reg := obs.NewRegistry()
	if _, err := RunOpts(context.Background(), pts, Options{Workers: 1, Metrics: reg, Replay: ReplayOn}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricCaptureOverlap).Value(); got != 0 {
		t.Errorf("one-worker sweep: %s = %d, want 0", MetricCaptureOverlap, got)
	}

	// Many groups, many workers: overlap is scheduler-dependent, but it
	// can never exceed the number of captures, and sharing the queue
	// must not change what the sweep computes.
	baseline, err := RunOpts(context.Background(), pts, Options{Workers: 1, Replay: ReplayOff})
	if err != nil {
		t.Fatal(err)
	}
	reg = obs.NewRegistry()
	got, err := RunOpts(context.Background(), pts, Options{Workers: 4, Metrics: reg, Replay: ReplayOn})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, baseline) {
		t.Error("four-worker sweep diverges from serial direct execution")
	}
	captures := reg.Counter(MetricStreamCaptures).Value()
	if captures != 4 {
		t.Errorf("%s = %d, want 4 (one per (kernel, N) group)", MetricStreamCaptures, captures)
	}
	if overlap := reg.Counter(MetricCaptureOverlap).Value(); overlap > captures {
		t.Errorf("%s = %d exceeds %s = %d", MetricCaptureOverlap, overlap, MetricStreamCaptures, captures)
	}
}

// TestPlanReplay unit-tests the grouping rules directly.
func TestPlanReplay(t *testing.T) {
	k1, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := loops.ByKey("k2")
	if err != nil {
		t.Fatal(err)
	}
	pf := sim.PaperConfig(4, 32)
	pf.ModelPartialFill = true
	pts := []Point{
		{Kernel: k1, N: 100, Config: sim.PaperConfig(1, 32)},  // 0: group A
		{Kernel: k1, N: 100, Config: sim.PaperConfig(8, 32)},  // 1: group A
		{Kernel: k1, N: 100, Config: pf},                      // 2: ineligible
		{Kernel: k2, N: 100, Config: sim.PaperConfig(4, 32)},  // 3: singleton
		{Kernel: nil, N: 100, Config: sim.PaperConfig(4, 32)}, // 4: nil kernel
		{Kernel: k1, N: -1, Config: sim.PaperConfig(2, 32)},   // 5: clamps to DefaultN
		{Kernel: k1, N: 0, Config: sim.PaperConfig(2, 16)},    // 6: clamps to DefaultN
	}

	off := planReplay(pts, ReplayOff)
	for i, g := range off {
		if g != nil {
			t.Errorf("ReplayOff: point %d got a group", i)
		}
	}

	auto := planReplay(pts, ReplayAuto)
	if auto[0] == nil || auto[0] != auto[1] {
		t.Errorf("ReplayAuto: points 0 and 1 should share one group, got %p / %p", auto[0], auto[1])
	}
	if auto[2] != nil || auto[4] != nil {
		t.Errorf("ReplayAuto: ineligible/nil-kernel points got groups: %p / %p", auto[2], auto[4])
	}
	if auto[3] != nil {
		t.Errorf("ReplayAuto: singleton point got a group")
	}
	if auto[5] == nil || auto[5] != auto[6] {
		t.Errorf("ReplayAuto: clamped problem sizes should share one group, got %p / %p", auto[5], auto[6])
	}
	if auto[0] == auto[5] {
		t.Errorf("ReplayAuto: distinct problem sizes share a group")
	}

	on := planReplay(pts, ReplayOn)
	if on[3] == nil {
		t.Errorf("ReplayOn: singleton point should get a group")
	}
	if on[2] != nil || on[4] != nil {
		t.Errorf("ReplayOn: ineligible/nil-kernel points got groups")
	}
}

// TestPlanTasks pins what the queue starts with: one group per shared
// stream, in grid order of first members, holding its representatives
// in order of first occurrence and each one's members ascending; every
// other point direct.
func TestPlanTasks(t *testing.T) {
	k1, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	pf := sim.PaperConfig(4, 32)
	pf.ModelPartialFill = true
	bc8 := sim.PaperConfig(8, 32)
	bc8.Layout, bc8.LayoutRun = partition.KindBlockCyclic, 1
	one := sim.PaperConfig(1, 32)
	one.Policy = cache.Random
	pts := []Point{
		{Kernel: k1, N: 200, Config: sim.PaperConfig(2, 32)}, // 0: singleton
		{Kernel: k1, N: 100, Config: sim.PaperConfig(1, 32)}, // 1: group A
		{Kernel: k1, N: 100, Config: pf},                     // 2: ineligible, direct
		{Kernel: k1, N: 100, Config: sim.PaperConfig(8, 32)}, // 3: group A
		{Kernel: k1, N: 100, Config: bc8},                    // 4: group A, point 3's class
		{Kernel: k1, N: 100, Config: one},                    // 5: group A, point 1's class
	}
	one1 := sim.PaperConfig(1, 32).Representative()

	groups, direct := planTasks(pts, ReplayOn)
	if len(groups) != 2 || !reflect.DeepEqual(direct, []int{2}) {
		t.Fatalf("ReplayOn: %d groups, direct %v; want 2 groups, direct [2]", len(groups), direct)
	}
	if !reflect.DeepEqual(groups[0].members, [][]int{{0}}) || groups[0].n != 200 {
		t.Errorf("ReplayOn: group 0 = %+v, want the singleton {0}", groups[0])
	}
	if !reflect.DeepEqual(groups[1].members, [][]int{{1, 5}, {3, 4}}) || groups[1].n != 100 ||
		!reflect.DeepEqual(groups[1].cfgs, []sim.Config{one1, sim.PaperConfig(8, 32)}) {
		t.Errorf("ReplayOn: group 1 = %+v, want classes {1, 5} and {3, 4}", groups[1])
	}

	groups, direct = planTasks(pts, ReplayAuto)
	if len(groups) != 1 || !reflect.DeepEqual(groups[0].members, [][]int{{1, 5}, {3, 4}}) || !reflect.DeepEqual(direct, []int{0, 2}) {
		t.Errorf("ReplayAuto: groups %+v direct %v, want one group {1, 5}, {3, 4} and the singleton direct", groups, direct)
	}

	groups, direct = planTasks(pts, ReplayOff)
	if len(groups) != 0 || !reflect.DeepEqual(direct, []int{0, 1, 2, 3, 4, 5}) {
		t.Errorf("ReplayOff: groups %+v direct %v, want every point direct", groups, direct)
	}
}

// TestScatterMatchesDirect: a sweep that classifies one representative
// per class returns, at every index, exactly what direct execution of
// that point returns — Config included, which is the member's own.
func TestScatterMatchesDirect(t *testing.T) {
	for name, pts := range map[string][]Point{
		"wideGroup(k2)": wideGroup(t, "k2", 0),
		"mixedGrid":     mixedGrid(t),
	} {
		want, err := RunOpts(context.Background(), pts, Options{Replay: ReplayOff})
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunOpts(context.Background(), pts, Options{Replay: ReplayAuto})
		if err != nil {
			t.Fatal(err)
		}
		for i := range pts {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: point %d (%s): replayed result differs from direct execution", name, i, pts[i])
			}
		}
	}
}

// TestScatterSharesNothing: class-mates get deep copies, so mutating
// one member's result leaves every other member's intact.
func TestScatterSharesNothing(t *testing.T) {
	pts := mixedGrid(t)
	want, err := RunOpts(context.Background(), pts, Options{Replay: ReplayOff})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunOpts(context.Background(), pts, Options{Replay: ReplayAuto})
	if err != nil {
		t.Fatal(err)
	}
	groups, _ := planTasks(pts, ReplayAuto)
	mates := 0
	for _, g := range groups {
		for _, m := range g.members {
			r := got[m[0]] // the representative's own result object
			r.PerPE[0].LocalReads++
			r.Cache[0].Hits++
			r.Traffic[0][len(r.Traffic)-1]++
			r.Checksums[0].Sum++
			for _, i := range m[1:] {
				mates++
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("point %d changed with its class-mate %d", i, m[0])
				}
			}
		}
	}
	if mates == 0 {
		t.Fatal("mixedGrid has no class-mates: the test is vacuous")
	}
}

// TestRepeatedInvalidConfigBlamesFirst: one invalid configuration
// repeated at indices 3 and 9 is one representative; its failure is
// point 3's at every worker count, every time.
func TestRepeatedInvalidConfigBlamesFirst(t *testing.T) {
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	pts := Grid{Kernels: []*loops.Kernel{k}, N: 64, NPEs: []int{1, 2, 4, 8}, PageSizes: []int{16, 32, 64}}.Points()
	bad := sim.PaperConfig(4, 32)
	bad.CacheElems = -1
	pts[3].Config, pts[9].Config = bad, bad
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 50; rep++ {
			_, err := RunOpts(context.Background(), pts, Options{Workers: workers})
			if err == nil || !strings.HasPrefix(err.Error(), "sweep: point 3 (") {
				t.Fatalf("workers=%d rep %d: error %v, want point 3's", workers, rep, err)
			}
		}
	}
}
