package sweep

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/refstream"
)

// wideGroup is one capture group of 1 920 configurations covering every
// classification path: a single stream whose classification is the
// whole sweep, cut into many chunks.
func wideGroup(t testing.TB, key string, n int) []Point {
	t.Helper()
	k, err := loops.ByKey(key)
	if err != nil {
		t.Fatal(err)
	}
	return Grid{
		Kernels:    []*loops.Kernel{k},
		N:          n,
		NPEs:       []int{1, 2, 3, 4, 6, 8, 12, 16, 32, 64},
		PageSizes:  []int{16, 32, 64, 128},
		CacheElems: []int{0, 64, 256, 2048},
		Layouts:    []partition.Kind{partition.KindModulo, partition.KindBlock, partition.KindBlockCyclic},
		Policies:   []cache.Policy{cache.LRU, cache.FIFO, cache.Clock, cache.Random},
	}.Points()
}

// plannedCut is what the sweep will make of a one-group point list: the
// planner's group and the chunks its representatives are cut into.
type plannedCut struct {
	g      *replayGroup
	chunks []refstream.Chunk
}

// cutOf plans pts as the sweep does and cuts the group's
// representatives: the cut is a pure function of (stream,
// representatives), so a test can compute it beside the sweep.
func cutOf(t testing.TB, pts []Point) plannedCut {
	t.Helper()
	groups, direct := planTasks(pts)
	if len(groups) != 1 || len(direct) != 0 {
		t.Fatalf("planned %d groups and %d direct points, want one group", len(groups), len(direct))
	}
	g := groups[0]
	st, err := refstream.Capture(g.kernel, g.n)
	if err != nil {
		t.Fatal(err)
	}
	return plannedCut{g, append([]refstream.Chunk(nil), refstream.NewReplayer().Cut(st, g.cfgs)...)}
}

// points counts the grid points chunk c serves.
func (p plannedCut) points(c refstream.Chunk) int {
	n := 0
	for _, m := range p.g.members[c.Lo:c.Hi] {
		n += len(m)
	}
	return n
}

// chunkOf returns the position of the chunk that serves grid index i.
func (p plannedCut) chunkOf(i int) int {
	for ci, c := range p.chunks {
		for _, m := range p.g.members[c.Lo:c.Hi] {
			if slices.Contains(m, i) {
				return ci
			}
		}
	}
	return -1
}

// TestWideGroupUsesEveryWorker: a sweep that is one wide group is cut
// into chunks that any worker may take, so two workers share it — and
// what they return is what one worker returns, and what direct
// execution returns.
func TestWideGroupUsesEveryWorker(t *testing.T) {
	pts := wideGroup(t, "k1", 0)
	one, err := RunOpts(context.Background(), pts, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	two, err := RunOpts(context.Background(), pts, Options{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(two, one) {
		t.Error("two workers sharing one group's chunks diverge from one worker")
	}
	snap := reg.Snapshot()
	if got := snap.Counters[refstream.MetricBatchGroups]; got != 1 {
		t.Errorf("%s = %d, want 1: a group is counted once, not once per chunk", refstream.MetricBatchGroups, got)
	}
	h := snap.Histograms[refstream.MetricBatchPartitions]
	if want := int64(len(cutOf(t, pts).chunks)); h.Count != 1 || h.Sum != want || want < 2 {
		t.Errorf("%s: %d observations summing to %d, want one observation of %d (> 1) chunks",
			refstream.MetricBatchPartitions, h.Count, h.Sum, want)
	}
	if got := snap.Counters[MetricStreamCaptures]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricStreamCaptures, got)
	}
	// Direct execution of every 97th point: an oracle that shares no
	// scheduling, capture or replay code with the queue.
	var sample []Point
	var at []int
	for i := 0; i < len(pts); i += 97 {
		sample, at = append(sample, pts[i]), append(at, i)
	}
	direct := runDirect(t, sample)
	for j, i := range at {
		if !reflect.DeepEqual(two[i], direct[j]) {
			t.Errorf("point %d (%s): chunked replay differs from direct execution", i, pts[i])
		}
	}
}

// TestChunkErrorIsLowestIndex: two invalid configurations in different
// chunks of one group. Chunks are taken heaviest first and by whichever
// worker is free, so either failure may be met first; the one reported
// must be the lower grid index at every worker count, every time.
func TestChunkErrorIsLowestIndex(t *testing.T) {
	pts := wideGroup(t, "k1", 100)
	cut := cutOf(t, pts)
	chunks := cut.chunks
	if len(chunks) < 4 {
		t.Fatalf("group cut into %d chunks, want at least 4", len(chunks))
	}
	low, high := cut.g.members[chunks[1].Hi-1][0], cut.g.members[chunks[len(chunks)-2].Lo][0]
	pts[low].Config.NPE = -1
	pts[high].Config.PageSize = -3
	// Invalid configurations are their own representatives and are
	// charged the lowest weight, so placing them moves the cut: check
	// they still sit in different chunks.
	cut = cutOf(t, pts)
	if cut.chunkOf(low) == cut.chunkOf(high) {
		t.Fatalf("points %d and %d share chunk %d", low, high, cut.chunkOf(low))
	}
	want := "sweep: point " + strconv.Itoa(low) + " "
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 50; rep++ {
			_, err := RunOpts(context.Background(), pts, Options{Workers: workers})
			if err == nil {
				t.Fatalf("workers=%d: failing grid succeeded", workers)
			}
			if !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), "NPE must be positive") {
				t.Fatalf("workers=%d rep %d: error %q is not point %d's", workers, rep, err, low)
			}
		}
	}
}

// TestQueueBoundsSimulations wraps every capture, classification and
// direct run of real sweeps in an entry hook: the number in flight never
// exceeds Workers. The bound is structural — a sweep is Workers
// goroutines doing one thing at a time — and this is the test that
// would catch a second pool growing beside the queue.
func TestQueueBoundsSimulations(t *testing.T) {
	pts := append(wideGroup(t, "k1", 100), mixedGrid(t)...)
	baseline, err := RunOpts(context.Background(), pts, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3} {
		var inFlight, peak, entries atomic.Int64
		enter := func() func() {
			entries.Add(1)
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			return func() { inFlight.Add(-1) }
		}
		s := newRun(pts, Options{})
		err := runQueue(context.Background(), workers, s.groups, s.direct, nil, func(ctx context.Context) worker {
			w := s.worker(ctx)
			return worker{
				capture: func(g *replayGroup) ([]chunk, error) {
					defer enter()()
					return w.capture(g)
				},
				classify: func(c chunk) (int, error) {
					defer enter()()
					return w.classify(c)
				},
				point: func(i int) error {
					defer enter()()
					return w.point(i)
				},
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := peak.Load(); got > int64(workers) || got < 1 {
			t.Errorf("workers=%d: %d simulations in flight at once", workers, got)
		}
		if want := int64(len(s.groups) + len(s.direct)); entries.Load() <= want {
			t.Errorf("workers=%d: hook saw %d items, want more than the %d captures and direct points (chunks too)", workers, entries.Load(), want)
		}
		if !reflect.DeepEqual(s.results, baseline) {
			t.Errorf("workers=%d: results differ from the one-worker sweep", workers)
		}
	}
}

// TestWideSweepScalesToTwoWorkers is the structural perf gate for the
// queue: a sweep that is one wide group must finish at two workers in
// at most 0.75x its one-worker time. Before chunks a group was one
// task and the ratio was 1.0 whatever the core count, so a trip means
// a wide group has stopped spreading, not jitter. Same opt-in and
// method as internal/refstream's gates (REFSTREAM_PERF_GATE=1,
// best-of-N in one process); on a one-core host the comparison is
// meaningless and the gate skips.
func TestWideSweepScalesToTwoWorkers(t *testing.T) {
	if os.Getenv("REFSTREAM_PERF_GATE") == "" {
		t.Skip("perf gate disabled; set REFSTREAM_PERF_GATE=1 to run")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("GOMAXPROCS=1: no parallelism to gate on this host")
	}
	pts := wideGroup(t, "k2", 0)
	best := func(workers int) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for i := 0; i < 7; i++ {
			start := time.Now()
			if _, err := RunOpts(context.Background(), pts, Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	one, two := best(1), best(2)
	t.Logf("one group of %d configs: 1 worker %v, 2 workers %v (%.2fx)", len(pts), one, two, float64(one)/float64(two))
	if float64(two) > 0.75*float64(one) {
		t.Fatalf("2-worker sweep of one wide group (%v) is not under 0.75x the 1-worker sweep (%v): the group's chunks are not spreading over the workers", two, one)
	}
}
