package refstream

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
)

// parGrid builds a capture group with room for several chunks under
// fineCut: the seeded shape grid crossed with an extra cache-size axis.
func parGrid() []sim.Config {
	base := shapeGrid()
	cfgs := make([]sim.Config, 0, 2*len(base))
	cfgs = append(cfgs, base...)
	for _, c := range base {
		c.CacheElems = (c.CacheElems + 128) % 2048
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// fineCut returns a Replayer whose cut closes a chunk at about the cost
// of an owner map of one policy configuration, so the small groups and
// short streams of the test suite split into many ragged chunks. The
// default target would leave every one of them a single chunk.
func fineCut(st *Stream) *Replayer {
	r := NewReplayer()
	r.target = (mapWeight + pathWeight[pathPolicy]) * int64(st.Events())
	return r
}

// TestBatchPartitions pins the cut as a property: over seeded random
// groups — every path class, runs of framed configurations sharing an
// (NPE, page size), invalid configurations included — and a spread of
// targets, the chunks are contiguous, ascending and cover every index
// exactly once; no chunk boundary falls inside a run of framed
// column-walking configurations with one (NPE, page size), so each
// owner map is built once; none exceeds the target unless it is a
// single unit (such a run, or one other configuration); each chunk's
// cost is the sum of its units'; and the cut is a pure function of
// (stream, cfgs), whatever Replayer computes it.
func TestBatchPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, key := range []string{"k1", "k6", "k24"} {
		k, err := loops.ByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Capture(k, 120)
		if err != nil {
			t.Fatal(err)
		}
		events := int64(st.Events())
		// walker reports a framed configuration that walks the read
		// column: the members of the runs Cut must keep whole.
		walker := func(c sim.Config) bool {
			return validateConfig(c) == nil && c.NPE > 1 && c.CacheElems/c.PageSize > 0 &&
				pageCount(st.ArrayLens, c.PageSize) > 0
		}
		joined := func(a, b sim.Config) bool {
			return walker(a) && walker(b) && a.NPE == b.NPE && a.PageSize == b.PageSize
		}
		other := NewReplayer() // a Replayer with history, for the purity check
		if _, err := other.RunBatchN(st, shapeGrid(), 1); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			var cfgs []sim.Config
			for n := rng.Intn(300); len(cfgs) < n; {
				npe := []int{1, 2, 3, 8, 12, 64}[rng.Intn(6)]
				ps := []int{1, 16, 32, 128}[rng.Intn(4)]
				for j := rng.Intn(6); j >= 0 && len(cfgs) < n; j-- {
					c := sim.Config{
						NPE:        npe,
						PageSize:   ps,
						CacheElems: []int{0, 64, 256, 8192}[rng.Intn(4)],
						Policy:     cache.Policy(rng.Intn(4)),
						Layout:     partition.Kind(rng.Intn(3)),
						LayoutRun:  2,
					}
					if rng.Intn(50) == 0 {
						c.NPE = -1 // invalid: charged the lowest weight, must not trip the cut
					}
					cfgs = append(cfgs, c)
				}
			}
			unitCut := NewReplayer()
			unitCut.target = 1 // one chunk per unit: its cost alone
			units := append([]Chunk(nil), unitCut.Cut(st, cfgs)...)
			at := 0
			for ui, u := range units {
				if u.Lo != at {
					t.Fatalf("%s trial %d: unit %d = [%d,%d) after %d", key, trial, ui, u.Lo, u.Hi, at)
				}
				at = u.Hi
				for i := u.Lo + 1; i < u.Hi; i++ {
					if !joined(cfgs[i-1], cfgs[i]) {
						t.Fatalf("%s trial %d: unit [%d,%d) joins configs %d and %d, which share no run", key, trial, u.Lo, u.Hi, i-1, i)
					}
				}
				if u.Hi < len(cfgs) && u.Hi > u.Lo && joined(cfgs[u.Hi-1], cfgs[u.Hi]) {
					t.Fatalf("%s trial %d: unit [%d,%d) stops inside a run", key, trial, u.Lo, u.Hi)
				}
			}
			if at != len(cfgs) {
				t.Fatalf("%s trial %d: units cover %d of %d configs", key, trial, at, len(cfgs))
			}
			for _, target := range []int64{0, 1, 40 * events, 500 * events} {
				r := NewReplayer()
				r.target = target
				chunks := append([]Chunk(nil), r.Cut(st, cfgs)...)
				if target == 0 {
					target = chunkTarget
				}
				at, ui := 0, 0
				for ci, c := range chunks {
					if c.Lo != at || c.Hi <= c.Lo {
						t.Fatalf("%s trial %d target %d: chunk %d = [%d,%d) after %d: not contiguous ascending", key, trial, target, ci, c.Lo, c.Hi, at)
					}
					at = c.Hi
					var sum int64
					n := 0
					for ; ui < len(units) && units[ui].Hi <= c.Hi; ui++ {
						if units[ui].Lo < c.Lo {
							t.Fatalf("%s trial %d target %d: chunk %d = [%d,%d) splits unit [%d,%d)", key, trial, target, ci, c.Lo, c.Hi, units[ui].Lo, units[ui].Hi)
						}
						sum += units[ui].Cost
						n++
					}
					if c.Cost != sum {
						t.Errorf("%s trial %d target %d: chunk %d cost %d, units sum to %d", key, trial, target, ci, c.Cost, sum)
					}
					if c.Cost > target && n > 1 {
						t.Errorf("%s trial %d: chunk %d of %d units costs %d > target %d", key, trial, ci, n, c.Cost, target)
					}
				}
				if at != len(cfgs) || ui != len(units) {
					t.Fatalf("%s trial %d target %d: chunks cover %d of %d configs, %d of %d units", key, trial, target, at, len(cfgs), ui, len(units))
				}
				other.target = r.target
				if again := other.Cut(st, cfgs); !reflect.DeepEqual(append([]Chunk(nil), again...), chunks) {
					t.Errorf("%s trial %d target %d: a second Replayer cut the same group differently", key, trial, target)
				}
			}
		}
	}
}

// dealChunks classifies cfgs the way internal/sweep's queue spreads a
// group over its workers: chunk i of chunks runs on rs[i%len(rs)] with
// RunChunk, its Results landing at their group indices. With
// concurrent set each Replayer runs its chunks on its own goroutine
// over the shared stream; otherwise they all run on the caller's.
func dealChunks(t testing.TB, st *Stream, cfgs []sim.Config, chunks []Chunk, rs []*Replayer, concurrent bool) []*sim.Result {
	out := make([]*sim.Result, len(cfgs))
	share := func(p int) {
		for i := p; i < len(chunks); i += len(rs) {
			c := chunks[i]
			if err := rs[p].RunChunk(st, cfgs[c.Lo:c.Hi], out[c.Lo:c.Hi]); err != nil {
				t.Errorf("chunk %d [%d,%d) on Replayer %d: %v", i, c.Lo, c.Hi, p, err)
			}
		}
	}
	if !concurrent {
		for p := range rs {
			share(p)
		}
		return out
	}
	var wg sync.WaitGroup
	for p := range rs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			share(p)
		}()
	}
	wg.Wait()
	return out
}

// TestParallelMatchesSerialBatch is the chunked replayer's bit-identity
// contract as internal/sweep uses it: for every kernel, a finely cut
// group dealt over 2, 3, 4 or 8 Replayers running side by side must
// produce Results bit-identical to one RunBatchN pass of the same group
// — and therefore, transitively, to per-configuration replay and direct
// execution. The Replayers deal the group twice, so reused slabs must
// keep producing identical output.
func TestParallelMatchesSerialBatch(t *testing.T) {
	cfgs := parGrid()
	workerCounts := []int{2, 3, 4, 8}
	for _, k := range loops.All() {
		k := k
		t.Run(k.Key, func(t *testing.T) {
			t.Parallel()
			st, err := Capture(k, smallN(k))
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			want, err := NewReplayer().RunBatchN(st, cfgs, 1)
			if err != nil {
				t.Fatalf("serial batch: %v", err)
			}
			chunks := fineCut(st).Cut(st, cfgs)
			for _, workers := range workerCounts {
				rs := make([]*Replayer, workers)
				for p := range rs {
					rs[p] = NewReplayer()
				}
				for pass := 0; pass < 2; pass++ {
					got := dealChunks(t, st, cfgs, chunks, rs, true)
					for i := range cfgs {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Errorf("workers=%d pass %d config %d (npe=%d ps=%d ce=%d %s/%s): chunked classification diverges from one pass",
								workers, pass, i, cfgs[i].NPE, cfgs[i].PageSize, cfgs[i].CacheElems, cfgs[i].Layout, cfgs[i].Policy)
						}
					}
				}
			}
		})
	}
}

// TestParallelBatchSharedStream runs two Replayers' RunBatchN calls
// concurrently over one decoded Stream, each cutting the group into
// many chunks; under -race this proves chunk classification keeps the
// shared Stream — decoded columns, memoized summaries — read-only,
// which is what internal/sweep's workers rely on.
func TestParallelBatchSharedStream(t *testing.T) {
	k, err := loops.ByKey("k2")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Capture(k, 256)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := parGrid()
	want, err := NewReplayer().RunBatchN(st, cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := fineCut(st)
			for iter := 0; iter < 5; iter++ {
				got, err := r.RunBatchN(st, cfgs, 1)
				if err != nil {
					t.Errorf("chunked batch: %v", err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("concurrent chunked batch diverges from one pass")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestParallelBatchErrorAttribution: a batch cut into many chunks must
// blame the lowest failing input index — even when the failure sits in
// a later chunk or several chunks fail — with exactly the one-chunk
// batch's error text.
func TestParallelBatchErrorAttribution(t *testing.T) {
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Capture(k, 300)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := parGrid()
	for _, badIdx := range []int{0, 5, len(cfgs) / 2, len(cfgs) - 1} {
		bad := append([]sim.Config(nil), cfgs...)
		bad[badIdx] = sim.Config{NPE: -1, PageSize: 32}
		_, wholeErr := NewReplayer().RunBatchN(st, bad, 1)
		if wholeErr == nil {
			t.Fatalf("badIdx=%d: one-chunk batch accepted an invalid config", badIdx)
		}
		_, cutErr := fineCut(st).RunBatchN(st, bad, 1)
		if cutErr == nil {
			t.Fatalf("badIdx=%d: chunked batch accepted an invalid config", badIdx)
		}
		if cutErr.Error() != wholeErr.Error() {
			t.Errorf("badIdx=%d: chunked error %q, one-chunk error %q", badIdx, cutErr, wholeErr)
		}
		var be *BatchError
		if !errors.As(cutErr, &be) || be.Index != badIdx {
			t.Errorf("badIdx=%d: chunked BatchError.Index = %v, want %d", badIdx, cutErr, badIdx)
		}
	}
	// Two failures in different chunks: the lower index wins.
	bad := append([]sim.Config(nil), cfgs...)
	bad[2] = sim.Config{NPE: 4, PageSize: -3}
	bad[len(bad)-2] = sim.Config{NPE: -1, PageSize: 32}
	_, err = fineCut(st).RunBatchN(st, bad, 1)
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 2 {
		t.Errorf("two failures: got %v, want BatchError at index 2", err)
	}
}

// TestParallelBatchMetrics pins the observability of a group that is
// cut: one group however many chunks run, a partitions observation
// equal to the chunk count of the group's representatives, every
// representative counted under exactly one path, and decode passes
// counted per chunk.
func TestParallelBatchMetrics(t *testing.T) {
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Capture(k, 300)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := parGrid()
	reps := NewReplayer().distinct(cfgs) // what RunBatchN cuts
	wantParts := len(fineCut(st).Cut(st, reps))
	if wantParts < 2 {
		t.Fatalf("parGrid too small to split: %d chunks", wantParts)
	}
	reg := obs.NewRegistry()
	r := fineCut(st)
	r.Metrics = reg
	if _, err := r.RunBatchN(st, cfgs, 1); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[MetricBatchGroups]; got != 1 {
		t.Errorf("groups = %d, want 1 (a group is counted once, not once per chunk)", got)
	}
	h, ok := snap.Histograms[MetricBatchPartitions]
	if !ok || h.Count != 1 {
		t.Fatalf("partitions histogram: %+v, want one observation", h)
	}
	if h.Sum != int64(wantParts) {
		t.Errorf("partitions observation = %d, want %d", h.Sum, wantParts)
	}
	var served int64
	for _, name := range pathMetric {
		served += snap.Counters[name]
	}
	if served != int64(len(reps)) {
		t.Errorf("path counters sum to %d, want %d (each representative under exactly one path)", served, len(reps))
	}
	for _, p := range []path{pathFold, pathSWAR, pathStack, pathPolicy} {
		if snap.Counters[pathMetric[p]] == 0 {
			t.Errorf("%s = 0: parGrid holds configurations of this path", pathMetric[p])
		}
	}
	// The same chunks dealt over two Replayers that share a registry,
	// as internal/sweep runs them, record the same counts: the cut, not
	// who runs the chunks, decides them.
	dealt := obs.NewRegistry()
	cutter := fineCut(st)
	cutter.Metrics = dealt
	rs := []*Replayer{{Metrics: dealt}, {Metrics: dealt}}
	dealChunks(t, st, reps, cutter.Cut(st, reps), rs, true)
	if got, want := dealt.Snapshot().Counters, snap.Counters; !reflect.DeepEqual(got, want) {
		t.Errorf("counters of the dealt chunks %v differ from RunBatchN's %v", got, want)
	}
	// A group under the target observes one partition, so the histogram
	// doubles as a split-vs-whole mix signal.
	if _, err := r.RunBatchN(st, cfgs[:1], 1); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if h := snap.Histograms[MetricBatchPartitions]; h.Count != 2 || h.Sum != int64(wantParts)+1 {
		t.Errorf("after a one-chunk call: partitions count=%d sum=%d, want 2/%d", h.Count, h.Sum, wantParts+1)
	}
}
