package refstream

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
)

// TestBatchMatchesSingleAllKernels is the batch replayer's equivalence
// contract: for every kernel, classifying the whole seeded shape grid
// in one RunBatchN pass must produce Results bit-identical to
// per-configuration Replayer.Run — and, by Run's own contract, to
// direct sim.Run of every point.
func TestBatchMatchesSingleAllKernels(t *testing.T) {
	cfgs := shapeGrid()
	for _, k := range loops.All() {
		k := k
		t.Run(k.Key, func(t *testing.T) {
			t.Parallel()
			n := smallN(k)
			st, err := Capture(k, n)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			got, err := NewReplayer().RunBatchN(st, cfgs, 1)
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			if len(got) != len(cfgs) {
				t.Fatalf("batch returned %d results for %d configs", len(got), len(cfgs))
			}
			single := NewReplayer()
			for i, cfg := range cfgs {
				want, err := single.Run(st, cfg)
				if err != nil {
					t.Fatalf("single npe=%d ps=%d: %v", cfg.NPE, cfg.PageSize, err)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("npe=%d ps=%d ce=%d %s/%s: batch diverges from single-config replay\nbatch:  totals %v reduce %d/%d cache %v\nsingle: totals %v reduce %d/%d cache %v",
						cfg.NPE, cfg.PageSize, cfg.CacheElems, cfg.Layout, cfg.Policy,
						got[i].Totals, got[i].ReduceSends, got[i].ReduceBcasts, got[i].Cache,
						want.Totals, want.ReduceSends, want.ReduceBcasts, want.Cache)
				}
			}
		})
	}
}

// TestBatchReplayerReuse interleaves RunBatchN groups and single Run
// calls on one Replayer across streams — the sweep-worker usage — and
// requires every Result to match a fresh Replayer's.
func TestBatchReplayerReuse(t *testing.T) {
	k1, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	k24, err := loops.ByKey("k24")
	if err != nil {
		t.Fatal(err)
	}
	st1, err := Capture(k1, 300)
	if err != nil {
		t.Fatal(err)
	}
	st24, err := Capture(k24, 200)
	if err != nil {
		t.Fatal(err)
	}
	groupA := []sim.Config{sim.PaperConfig(8, 32), sim.PaperConfig(2, 8), sim.NoCacheConfig(16, 32)}
	groupB := []sim.Config{sim.PaperConfig(64, 16), sim.PaperConfig(1, 32)}
	r := NewReplayer()
	steps := []struct {
		st   *Stream
		cfgs []sim.Config
	}{
		{st1, groupA},
		{st24, groupB}, // wider machine, different stream
		{st1, groupB},
		{st24, groupA},
		{st1, groupA}, // back to the first group
	}
	for i, s := range steps {
		got, err := r.RunBatchN(s.st, s.cfgs, 1)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		// A single Run interleaved between batches must not perturb them.
		if _, err := r.Run(s.st, sim.PaperConfig(4, 32)); err != nil {
			t.Fatalf("step %d interleaved Run: %v", i, err)
		}
		for j, cfg := range s.cfgs {
			want, err := NewReplayer().Run(s.st, cfg)
			if err != nil {
				t.Fatalf("step %d config %d: %v", i, j, err)
			}
			if !reflect.DeepEqual(got[j], want) {
				t.Errorf("step %d config %d: reused batch Replayer diverges from fresh single-config replay", i, j)
			}
		}
	}
}

// TestBatchSharedStreamConcurrently runs RunBatchN against one Stream
// from many goroutines (each with its own Replayer); under -race this
// proves the batch path keeps the Stream read-only too.
func TestBatchSharedStreamConcurrently(t *testing.T) {
	k, err := loops.ByKey("k2")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Capture(k, 256)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []sim.Config{sim.PaperConfig(8, 32), sim.PaperConfig(8, 16), sim.NoCacheConfig(4, 32)}
	want, err := NewReplayer().RunBatchN(st, cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := NewReplayer()
			for i := 0; i < 10; i++ {
				got, err := r.RunBatchN(st, cfgs, 1)
				if err != nil {
					errs[g] = err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs[g] = errMismatch
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestBatchErrorAttribution: a failing configuration is reported as a
// *BatchError carrying the lowest failing index, with the same
// underlying error the single-config path reports — the contract the
// sweep engine's lowest-grid-index error propagation builds on.
func TestBatchErrorAttribution(t *testing.T) {
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Capture(k, 100)
	if err != nil {
		t.Fatal(err)
	}
	badPolicy := sim.PaperConfig(8, 32)
	badPolicy.Policy = cache.Policy(99)
	cfgs := []sim.Config{
		sim.PaperConfig(4, 32),  // 0: fine
		badPolicy,               // 1: first failure, must win
		sim.PaperConfig(8, 32),  // 2: fine
		{NPE: -1, PageSize: 32}, // 3: second failure, must not win
	}
	_, err = NewReplayer().RunBatchN(st, cfgs, 1)
	if err == nil {
		t.Fatal("batch with invalid configs succeeded")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *BatchError: %v", err, err)
	}
	if be.Index != 1 {
		t.Errorf("BatchError.Index = %d, want 1 (lowest failing position)", be.Index)
	}
	_, werr := NewReplayer().Run(st, badPolicy)
	if werr == nil {
		t.Fatal("single-config run accepted the bad policy")
	}
	if be.Err.Error() != werr.Error() {
		t.Errorf("batch error %q != single-config error %q", be.Err, werr)
	}

	pf := sim.PaperConfig(8, 32)
	pf.ModelPartialFill = true
	if _, err := NewReplayer().RunBatchN(st, []sim.Config{sim.PaperConfig(2, 32), pf}, 1); err == nil {
		t.Error("ineligible partial-fill config accepted by batch replay")
	} else if !errors.Is(err, ErrUnsupported) {
		t.Errorf("ineligible config error does not unwrap to ErrUnsupported: %v", err)
	}
}

// TestBatchClassifiesRepresentatives: a batch classifies one
// representative per set of count-identical configurations
// (sim.Config.Representative), yet every position gets what
// single-config replay of its own configuration returns; a later
// class-mate shares its representative's body under its own Config
// (sim.Result is write-once), and a repeated failure is blamed on its
// first position.
func TestBatchClassifiesRepresentatives(t *testing.T) {
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Capture(k, 200)
	if err != nil {
		t.Fatal(err)
	}
	bc := sim.PaperConfig(8, 32)
	bc.Layout, bc.LayoutRun = partition.KindBlockCyclic, 1
	one := sim.PaperConfig(1, 32)
	one.Policy, one.Layout = cache.Clock, partition.KindBlock
	cfgs := []sim.Config{sim.PaperConfig(8, 32), sim.PaperConfig(1, 32), bc, one, sim.PaperConfig(4, 32)}

	reg := obs.NewRegistry()
	r := NewReplayer()
	r.Metrics = reg
	got, err := r.RunBatchN(st, cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	var served int64
	for _, name := range pathMetric {
		served += reg.Counter(name).Value()
	}
	if served != 3 {
		t.Errorf("path counters sum to %d, want 3: one per representative", served)
	}
	// A call of one framed LRU configuration is priced two-level by the
	// stack walk whatever its frame count, layout and NPE: its level 1
	// walks the event columns, and SWAR rows walk a read column, which
	// such a call never builds (packed rows serve lone maps inside
	// groups; TestReplayMatchesOracle's RunBatchN leg holds them to the
	// oracle). The counters name the path that ran.
	blockSmall := sim.PaperConfig(12, 32) // 4 frames, NPE 12, Block
	blockSmall.CacheElems, blockSmall.Layout = 4*32, partition.KindBlock
	wideLRU := sim.PaperConfig(8, 32) // 16 frames, Modulo
	wideLRU.CacheElems = 16 * 32
	for _, tc := range []struct {
		cfg  sim.Config
		want path
	}{
		{sim.PaperConfig(8, 32), pathStack},
		{blockSmall, pathStack},
		{wideLRU, pathStack},
	} {
		one1 := obs.NewRegistry()
		r1 := NewReplayer()
		r1.Metrics = one1
		if _, err := r1.RunBatchN(st, []sim.Config{tc.cfg}, 1); err != nil {
			t.Fatal(err)
		}
		for p, name := range pathMetric {
			want := int64(0)
			if path(p) == tc.want {
				want = 1
			}
			if got := one1.Counter(name).Value(); got != want {
				t.Errorf("one-configuration call %+v: %s = %d, want %d", tc.cfg, name, got, want)
			}
		}
	}
	single := NewReplayer()
	for i, cfg := range cfgs {
		want, err := single.Run(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("position %d (%+v): batch diverges from single-config replay", i, cfg)
		}
	}
	for later, first := range map[int]int{2: 0, 3: 1} {
		if got[later] == got[first] || !sharesBody(got[later], got[first]) {
			t.Errorf("position %d does not share its class-mate %d's body in a Result of its own", later, first)
		}
		if got[later].Config != cfgs[later] || got[first].Config != cfgs[first] {
			t.Errorf("positions %d and %d carry configs %+v and %+v, want their own",
				later, first, got[later].Config, got[first].Config)
		}
	}

	bad := sim.PaperConfig(4, 32)
	bad.CacheElems = -1
	cfgs = []sim.Config{sim.PaperConfig(2, 32), sim.PaperConfig(8, 32), bad, bc, sim.PaperConfig(16, 32), bad}
	_, err = r.RunBatchN(st, cfgs, 1)
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 2 {
		t.Errorf("error %v, want a *BatchError at position 2", err)
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

// TestBatchDegenerateGroups: the empty group and the singleton group
// are valid batches, and a singleton matches single-config replay.
func TestBatchDegenerateGroups(t *testing.T) {
	k, err := loops.ByKey("k12")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Capture(k, 128)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplayer()
	res, err := r.RunBatchN(st, nil, 1)
	if err != nil || len(res) != 0 {
		t.Errorf("empty batch: got %d results, err %v", len(res), err)
	}
	cfg := sim.PaperConfig(8, 32)
	got, err := r.RunBatchN(st, []sim.Config{cfg}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewReplayer().Run(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Error("singleton batch diverges from single-config replay")
	}
}

// TestOneConfigCallsBuildNoReadColumn pins the memory rule of a call
// that classifies one configuration: Run, and a RunBatchN whose
// configurations share one representative, classify framed
// configurations of every policy from the stream's event columns and
// never build its read column, which a daemon answering single points
// would otherwise retain per (stream, page size). Two framed configurations
// at one page size are a group and build it once. Every result still
// equals a direct sim.Run.
func TestOneConfigCallsBuildNoReadColumn(t *testing.T) {
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	st, err := Capture(k, n)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []sim.Config
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Clock, cache.Random} {
		c := sim.PaperConfig(8, 32)
		c.Policy = pol
		cfgs = append(cfgs, c)
	}
	wide := sim.PaperConfig(16, 32)
	wide.CacheElems = 100 * 32 // 100 frames: past the inline LRU rows
	bc := sim.PaperConfig(8, 32)
	bc.Layout, bc.LayoutRun = partition.KindBlockCyclic, 1 // shares PaperConfig(8, 32)'s representative
	cfgs = append(cfgs, wide, sim.NoCacheConfig(8, 32), sim.PaperConfig(1, 32), bc)

	check := func(what string, cfg sim.Config, got *sim.Result) {
		t.Helper()
		want, err := sim.Run(k, n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %+v: diverges from sim.Run", what, cfg)
		}
	}
	r := NewReplayer()
	for _, cfg := range cfgs {
		got, err := r.Run(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check("Run", cfg, got)
		res, err := r.RunBatchN(st, []sim.Config{cfg}, 1)
		if err != nil {
			t.Fatal(err)
		}
		check("RunBatchN of one", cfg, res[0])
	}
	res, err := r.RunBatchN(st, []sim.Config{sim.PaperConfig(8, 32), bc}, 2)
	if err != nil {
		t.Fatal(err)
	}
	check("RunBatchN of one representative", sim.PaperConfig(8, 32), res[0])
	check("RunBatchN of one representative", bc, res[1])
	if got := st.readCols.builds.Load(); got != 0 {
		t.Fatalf("one-configuration calls built the read column %d times, want 0", got)
	}

	pair := []sim.Config{sim.PaperConfig(8, 32), sim.PaperConfig(16, 32)}
	res, err = r.RunBatchN(st, pair, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range pair {
		check("RunBatchN of two", cfg, res[i])
	}
	if got := st.readCols.builds.Load(); got != 1 {
		t.Errorf("a two-configuration framed call built the read column %d times, want 1", got)
	}
}

// TestBatchMetrics audits the batch observability surface: one group
// counter per call, decode passes bounded by the distinct page sizes
// (not the configuration count), and one configs-per-pass observation
// per read-column pass.
func TestBatchMetrics(t *testing.T) {
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Capture(k, 200)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r := NewReplayer()
	r.Metrics = reg
	// Six framed multi-PE configurations across two page sizes: two
	// read-column passes classify all six.
	cfgs := []sim.Config{
		sim.PaperConfig(8, 32), sim.PaperConfig(16, 32), sim.PaperConfig(4, 32),
		sim.PaperConfig(8, 16), sim.PaperConfig(16, 16), sim.PaperConfig(4, 16),
	}
	if _, err := r.RunBatchN(st, cfgs, 1); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricBatchGroups).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricBatchGroups, got)
	}
	if got := reg.Counter(MetricBatchDecodePasses).Value(); got != 2 {
		t.Errorf("%s = %d, want 2 (one per page-size bucket)", MetricBatchDecodePasses, got)
	}
	if got := reg.Histogram(MetricBatchConfigsPerPass, obs.DepthBuckets).Count(); got != 2 {
		t.Errorf("%s count = %d, want 2", MetricBatchConfigsPerPass, got)
	}
	// Order-free groups never walk the event columns at all.
	if _, err := r.RunBatchN(st, []sim.Config{sim.NoCacheConfig(8, 32), sim.NoCacheConfig(16, 32)}, 1); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricBatchDecodePasses).Value(); got != 2 {
		t.Errorf("order-free group walked the event columns: %s = %d, want still 2", MetricBatchDecodePasses, got)
	}
	if got := reg.Counter(MetricBatchGroups).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", MetricBatchGroups, got)
	}
}

// TestBatchReplayAllocs is the batch alloc guard: in steady state every
// additional representative in a group costs only its Result (at most
// the same 5 allocations single-config replay is held to), because all
// classification state lives in the Replayer's reused slabs, and every
// later class-mate costs one: a shallow copy sharing its
// representative's slices. The slack for the results slice itself is
// one allocation per call.
func TestBatchReplayAllocs(t *testing.T) {
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Capture(k, 400)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := shapeGrid()
	// Class-mates: the grid twice over, plus a block-cyclic(1) twin of
	// each modulo configuration.
	mates := append(slices.Clone(cfgs), cfgs...)
	for _, c := range cfgs {
		if c.Layout == partition.KindModulo {
			c.Layout, c.LayoutRun = partition.KindBlockCyclic, 1
			mates = append(mates, c)
		}
	}
	for _, tc := range []struct {
		name string
		cfgs []sim.Config
	}{{"distinct", cfgs}, {"class-mates", mates}} {
		reps := map[sim.Config]bool{}
		for _, c := range tc.cfgs {
			reps[c.Representative()] = true
		}
		r := NewReplayer()
		if _, err := r.RunBatchN(st, tc.cfgs, 1); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := r.RunBatchN(st, tc.cfgs, 1); err != nil {
				t.Fatal(err)
			}
		})
		later := len(tc.cfgs) - len(reps)
		limit := float64(5*len(reps) + later + 1)
		if allocs > limit {
			t.Errorf("%s: %.0f allocs per steady-state batch of %d representatives and %d later class-mates, "+
				"want <= %.0f (5 per representative + 1 per class-mate + the results slice)",
				tc.name, allocs, len(reps), later, limit)
		}
	}
}

// TestPathCountersDocumented holds docs/OBSERVABILITY.md's path-counter
// table to pathMetric in both directions: the table's
// refstream.batch.path.* rows must name exactly the registered paths,
// in order, so neither a new path nor a deleted one can drift from the
// docs.
func TestPathCountersDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\|\\s*`(" + regexp.QuoteMeta(MetricBatchPathPrefix) + "[a-z0-9_]*)`\\s*\\|")
	var documented []string
	for _, line := range strings.Split(string(doc), "\n") {
		if m := row.FindStringSubmatch(strings.TrimSpace(line)); m != nil {
			documented = append(documented, m[1])
		}
	}
	if !slices.Equal(documented, pathMetric[:]) {
		t.Errorf("docs/OBSERVABILITY.md path-counter rows %q, want %q", documented, pathMetric)
	}
}
