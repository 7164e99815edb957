package sweep

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/sim"
)

func progressGrid(t *testing.T) []Point {
	t.Helper()
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{Kernels: []*loops.Kernel{k}, N: 300, NPEs: []int{1, 2, 4, 8}}
	return g.Points()
}

// TestRunOptsProgress checks the live-progress contract: serialized
// callbacks, monotone counters, a final state accounting for every
// point, and registry counters that match.
func TestRunOptsProgress(t *testing.T) {
	pts := progressGrid(t)
	// Partial-fill points are ineligible for replay, so every point runs
	// directly and the sim.runs assertion below counts one engine run
	// per point; replay_test.go covers the planner's counters.
	for i := range pts {
		pts[i].Config.ModelPartialFill = true
	}
	reg := obs.NewRegistry()
	var events []Progress // callback is serialized, so plain append is safe
	res, err := RunOpts(context.Background(), pts, Options{
		Workers:  3,
		Metrics:  reg,
		Progress: func(p Progress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(pts) {
		t.Fatalf("results = %d, want %d", len(res), len(pts))
	}
	if want := 2 * len(pts); len(events) != want {
		t.Fatalf("callbacks = %d, want %d (one per start + one per finish)", len(events), want)
	}
	prev := Progress{}
	for i, p := range events {
		if p.Total != len(pts) {
			t.Fatalf("event %d: total = %d, want %d", i, p.Total, len(pts))
		}
		if p.Started < prev.Started || p.Done+p.Failed < prev.Done+prev.Failed {
			t.Fatalf("event %d not monotone: %+v after %+v", i, p, prev)
		}
		prev = p
	}
	last := events[len(events)-1]
	if last.Started != len(pts) || last.Done != len(pts) || last.Failed != 0 {
		t.Errorf("final progress wrong: %+v", last)
	}
	if last.ETA != 0 {
		t.Errorf("completed sweep reports nonzero ETA: %v", last.ETA)
	}
	if got := reg.Counter(MetricPointsTotal).Value(); got != int64(len(pts)) {
		t.Errorf("%s = %d, want %d", MetricPointsTotal, got, len(pts))
	}
	if got := reg.Counter(MetricPointsDone).Value(); got != int64(len(pts)) {
		t.Errorf("%s = %d, want %d", MetricPointsDone, got, len(pts))
	}
	if got := reg.Counter(MetricPointsFailed).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", MetricPointsFailed, got)
	}
	if got := reg.Counter(sim.MetricRuns).Value(); got != int64(len(pts)) {
		t.Errorf("workers did not report sim runs: %s = %d, want %d", sim.MetricRuns, got, len(pts))
	}
}

// TestRunOptsInstrumentationPreservesResults: the sweep's bit-identical
// determinism guarantee must hold with progress and metrics attached.
func TestRunOptsInstrumentationPreservesResults(t *testing.T) {
	pts := progressGrid(t)
	baseline, err := RunN(context.Background(), 1, pts)
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := RunOpts(context.Background(), pts, Options{
		Workers:  4,
		Metrics:  obs.NewRegistry(),
		Progress: func(Progress) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range baseline {
		if !reflect.DeepEqual(baseline[i], instrumented[i]) {
			t.Errorf("point %d: instrumented result differs from baseline", i)
		}
	}
}

// TestRunOptsCountsFailures: a failing point is reported as failed,
// once, in both the callback stream and the registry — whether it fails
// as a direct point or inside a chunk of its group.
func TestRunOptsCountsFailures(t *testing.T) {
	pts := progressGrid(t)
	pts[len(pts)-1].Kernel = nil // poison the last point
	reg := obs.NewRegistry()
	var last Progress
	_, err := RunOpts(context.Background(), pts, Options{
		Workers:  1, // serial, so every earlier point completes first
		Metrics:  reg,
		Progress: func(p Progress) { last = p },
	})
	if err == nil {
		t.Fatal("poisoned sweep did not fail")
	}
	if last.Failed != 1 || last.Done != len(pts)-1 {
		t.Errorf("final progress = %+v, want %d done / 1 failed", last, len(pts)-1)
	}
	if got := reg.Counter(MetricPointsFailed).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricPointsFailed, got)
	}

	// A failure inside a chunk accounts the blamed point once too. The
	// failing chunk's other points started with it and stay started;
	// chunks above the failure are skipped by the cut and never start,
	// so Started exceeds Done+Failed by exactly that remainder and
	// nothing else; every chunk below the failure runs to completion.
	pts = wideGroup(t, "k1", 100)
	cut := cutOf(t, pts)
	if len(cut.chunks) < 4 {
		t.Fatalf("group cut into %d chunks, want at least 4", len(cut.chunks))
	}
	bad := cut.g.members[cut.chunks[len(cut.chunks)/2].Lo+1][0]
	pts[bad].Config.NPE = -1
	cut = cutOf(t, pts) // the invalid point is its own representative and charged less: cut again
	fc := cut.chunkOf(bad)
	below := 0
	for _, c := range cut.chunks[:fc] {
		below += cut.points(c)
	}
	reg = obs.NewRegistry()
	_, err = RunOpts(context.Background(), pts, Options{
		Workers:  1,
		Metrics:  reg,
		Progress: func(p Progress) { last = p },
	})
	if err == nil || !strings.Contains(err.Error(), "point "+strconv.Itoa(bad)+" ") {
		t.Fatalf("error = %v, want point %d's", err, bad)
	}
	if last.Failed != 1 {
		t.Errorf("final progress = %+v, want exactly 1 failed", last)
	}
	if got := reg.Counter(MetricPointsFailed).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricPointsFailed, got)
	}
	rest := cut.points(cut.chunks[fc]) - 1
	if last.Started != last.Done+last.Failed+rest {
		t.Errorf("final progress = %+v: Started should exceed Done+Failed by the failing chunk's other %d points", last, rest)
	}
	if last.Done < below {
		t.Errorf("final progress = %+v: the %d points of the chunks below point %d's must complete", last, below, bad)
	}
	if got, want := reg.Counter(MetricPointsStarted).Value(), int64(last.Started); got != want {
		t.Errorf("%s = %d, callback stream says %d", MetricPointsStarted, got, want)
	}
}
