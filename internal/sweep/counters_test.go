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

func counterGrid(t *testing.T) []Point {
	t.Helper()
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{Kernels: []*loops.Kernel{k}, N: 300, NPEs: []int{1, 2, 4, 8}}
	return g.Points()
}

// TestRunOptsInstrumentationPreservesResults: the sweep's bit-identical
// determinism guarantee must hold with metrics attached, and the
// registry must account every point: total, started and done, with
// every partial-fill point one direct engine run.
func TestRunOptsInstrumentationPreservesResults(t *testing.T) {
	pts := counterGrid(t)
	baseline, err := RunOpts(context.Background(), pts, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	instrumented, err := RunOpts(context.Background(), pts, Options{Workers: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := range baseline {
		if !reflect.DeepEqual(baseline[i], instrumented[i]) {
			t.Errorf("point %d: instrumented result differs from baseline", i)
		}
	}
	for _, name := range []string{MetricPointsTotal, MetricPointsStarted, MetricPointsDone} {
		if got := reg.Counter(name).Value(); got != int64(len(pts)) {
			t.Errorf("%s = %d, want %d", name, got, len(pts))
		}
	}
	if got := reg.Counter(MetricPointsFailed).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", MetricPointsFailed, got)
	}

	// Partial-fill points are ineligible for replay, so every point runs
	// directly: one engine run per point, reported by the workers.
	for i := range pts {
		pts[i].Config.ModelPartialFill = true
	}
	reg = obs.NewRegistry()
	if _, err := RunOpts(context.Background(), pts, Options{Workers: 3, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(sim.MetricRuns).Value(); got != int64(len(pts)) {
		t.Errorf("workers did not report sim runs: %s = %d, want %d", sim.MetricRuns, got, len(pts))
	}
}

// TestRunOptsCountsFailures: a failing point is counted failed, once,
// in the registry's sweep.points_* counters — whether it fails as a
// direct point or inside a chunk of its group.
func TestRunOptsCountsFailures(t *testing.T) {
	pts := counterGrid(t)
	pts[len(pts)-1].Kernel = nil // poison the last point
	reg := obs.NewRegistry()
	_, err := RunOpts(context.Background(), pts, Options{
		Workers: 1, // serial, so every earlier point completes first
		Metrics: reg,
	})
	if err == nil {
		t.Fatal("poisoned sweep did not fail")
	}
	started, done, failed := pointCounters(reg)
	if failed != 1 || done != len(pts)-1 || started != len(pts) {
		t.Errorf("points started/done/failed = %d/%d/%d, want %d/%d/1", started, done, failed, len(pts), len(pts)-1)
	}

	// A failure inside a chunk accounts the blamed point once too. The
	// failing chunk's other points started with it and stay started;
	// chunks above the failure are skipped by the cut and never start,
	// so started exceeds done+failed by exactly that remainder and
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
	_, err = RunOpts(context.Background(), pts, Options{Workers: 1, Metrics: reg})
	if err == nil || !strings.Contains(err.Error(), "point "+strconv.Itoa(bad)+" ") {
		t.Fatalf("error = %v, want point %d's", err, bad)
	}
	started, done, failed = pointCounters(reg)
	if failed != 1 {
		t.Errorf("%s = %d, want exactly 1", MetricPointsFailed, failed)
	}
	rest := cut.points(cut.chunks[fc]) - 1
	if started != done+failed+rest {
		t.Errorf("points started/done/failed = %d/%d/%d: started should exceed done+failed by the failing chunk's other %d points", started, done, failed, rest)
	}
	if done < below {
		t.Errorf("%s = %d: the %d points of the chunks below point %d's must complete", MetricPointsDone, done, below, bad)
	}
}

// pointCounters reads a sweep's started, done and failed point counts.
func pointCounters(reg *obs.Registry) (started, done, failed int) {
	return int(reg.Counter(MetricPointsStarted).Value()),
		int(reg.Counter(MetricPointsDone).Value()),
		int(reg.Counter(MetricPointsFailed).Value())
}
