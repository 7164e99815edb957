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
	// execution.
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

// runDirect runs every point through one sim.Scratch, in grid order:
// the unreduced reference a sweep is held to.
func runDirect(t testing.TB, pts []Point) []*sim.Result {
	t.Helper()
	scratch := sim.NewScratch()
	out := make([]*sim.Result, len(pts))
	for i, p := range pts {
		res, err := scratch.Run(p.Kernel, p.N, p.Config)
		if err != nil {
			t.Fatalf("point %d (%s): %v", i, p, err)
		}
		out[i] = res
	}
	return out
}

// TestReplayModesBitIdentical is the planner's determinism contract:
// a sweep executes each point in one of two modes — replayed from its
// group's captured stream, or run direct (singletons, ineligible
// points) — and the mode changes how a point is executed, never what
// it returns. mixedGrid exercises both modes; at several worker counts
// every point must be bit-identical to a serial direct run.
func TestReplayModesBitIdentical(t *testing.T) {
	pts := mixedGrid(t)
	baseline := runDirect(t, pts)
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		got, err := RunOpts(context.Background(), pts, Options{Workers: workers, Metrics: reg})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if reg.Counter(MetricReplayPoints).Value() == 0 || reg.Counter(MetricDirectPoints).Value() == 0 {
			t.Fatalf("workers=%d: %s = %d, %s = %d; the grid must exercise both modes",
				workers, MetricReplayPoints, reg.Counter(MetricReplayPoints).Value(),
				MetricDirectPoints, reg.Counter(MetricDirectPoints).Value())
		}
		for i := range pts {
			if !reflect.DeepEqual(got[i], baseline[i]) {
				t.Errorf("workers=%d: point %d (%s) differs from direct execution", workers, i, pts[i])
			}
		}
	}
}

// TestReplayPlanCounters audits the planner through the metrics
// registry: captures happen exactly once per group no matter how many
// workers drain the queue, every point is accounted replay or direct,
// only distinct representatives are classified, and the batch
// replayer's group counters count capture groups — one per group that
// is cut. The point counters count points, not representatives.
func TestReplayPlanCounters(t *testing.T) {
	pts := mixedGrid(t)
	// mixedGrid has groups (k1,200) and (k24,200) of 4 points and 3
	// representatives each, singleton (k1,333), which runs direct, and
	// one ineligible point.
	const captures, replayed, distinct, batched = 2, 8, 6, 2
	reg := obs.NewRegistry()
	if _, err := RunOpts(context.Background(), pts, Options{Workers: 8, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricPointsDone).Value(); got != int64(len(pts)) {
		t.Errorf("%s = %d; want every one of %d points done", MetricPointsDone, got, len(pts))
	}
	for name, want := range map[string]int64{
		MetricStreamCaptures:        captures,
		MetricReplayPoints:          replayed,
		MetricDistinctConfigs:       distinct,
		MetricDirectPoints:          int64(len(pts)) - replayed,
		refstream.MetricBatchGroups: batched,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Groups of three representatives are far under the cost target:
	// one chunk each, so the partitions histogram reads 1 per group.
	if h := reg.Snapshot().Histograms[refstream.MetricBatchPartitions]; h.Count != batched || h.Sum != batched {
		t.Errorf("%s = %d observations summing to %d, want %d of 1",
			refstream.MetricBatchPartitions, h.Count, h.Sum, batched)
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
		_, err := RunOpts(context.Background(), pts, Options{Workers: workers})
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
	if _, err := RunOpts(context.Background(), pts, Options{Workers: 1, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricCaptureOverlap).Value(); got != 0 {
		t.Errorf("one-worker sweep: %s = %d, want 0", MetricCaptureOverlap, got)
	}

	// Many groups, many workers: overlap is scheduler-dependent, but it
	// can never exceed the number of captures, and sharing the queue
	// must not change what the sweep computes.
	baseline := runDirect(t, pts)
	reg = obs.NewRegistry()
	got, err := RunOpts(context.Background(), pts, Options{Workers: 4, Metrics: reg})
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

	plan := planReplay(pts)
	if plan[0] == nil || plan[0] != plan[1] {
		t.Errorf("points 0 and 1 should share one group, got %p / %p", plan[0], plan[1])
	}
	if plan[2] != nil || plan[4] != nil {
		t.Errorf("ineligible/nil-kernel points got groups: %p / %p", plan[2], plan[4])
	}
	if plan[3] != nil {
		t.Errorf("singleton point got a group")
	}
	if plan[5] == nil || plan[5] != plan[6] {
		t.Errorf("clamped problem sizes should share one group, got %p / %p", plan[5], plan[6])
	}
	if plan[0] == plan[5] {
		t.Errorf("distinct problem sizes share a group")
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

	groups, direct := planTasks(pts)
	if len(groups) != 1 || !reflect.DeepEqual(direct, []int{0, 2}) {
		t.Fatalf("%d groups, direct %v; want one group, and the singleton and the ineligible point direct", len(groups), direct)
	}
	if !reflect.DeepEqual(groups[0].members, [][]int{{1, 5}, {3, 4}}) || groups[0].n != 100 ||
		!reflect.DeepEqual(groups[0].cfgs, []sim.Config{one1, sim.PaperConfig(8, 32)}) {
		t.Errorf("group = %+v, want classes {1, 5} and {3, 4}", groups[0])
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
		want := runDirect(t, pts)
		got, err := RunOpts(context.Background(), pts, Options{})
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

// TestClassMatesShareOneBody: sim.Result is write-once, so the first
// member of a class takes its representative's result and every later
// member a Result of its own that shares the representative's PerPE,
// Cache, Traffic and Checksums, stamped with the member's Config.
func TestClassMatesShareOneBody(t *testing.T) {
	pts := mixedGrid(t)
	got, err := RunOpts(context.Background(), pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	groups, _ := planTasks(pts)
	mates := 0
	for _, g := range groups {
		for _, m := range g.members {
			r := got[m[0]]
			for _, i := range m[1:] {
				mates++
				if got[i] == r || !sharesBody(got[i], r) {
					t.Errorf("point %d does not share its class-mate %d's body in a Result of its own", i, m[0])
				}
				if got[i].Config != pts[i].Config {
					t.Errorf("point %d carries config %+v, want its own %+v", i, got[i].Config, pts[i].Config)
				}
			}
		}
	}
	if mates == 0 {
		t.Fatal("mixedGrid has no class-mates: the test is vacuous")
	}
}

// sharesBody reports whether a and b share the backing arrays of every
// slice of a Result: PerPE, Cache, each Traffic row and Checksums.
func sharesBody(a, b *sim.Result) bool {
	if len(a.Traffic) != len(b.Traffic) {
		return false
	}
	for p := range a.Traffic {
		if &a.Traffic[p][0] != &b.Traffic[p][0] {
			return false
		}
	}
	return &a.PerPE[0] == &b.PerPE[0] && &a.Cache[0] == &b.Cache[0] &&
		&a.Checksums[0] == &b.Checksums[0]
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
