package refstream_test

// oracle_test.go — a reference classifier written from the paper's
// rules alone, sharing no code with partition, cache, sim or refstream:
// a loops.Engine with its own value and defined-bit storage that owns
// pages by the §2/§9 layout formulas, executes owner-computes
// assignments, runs control reads on every PE, collects reductions
// through a host PE, and keeps a textbook list-based LRU or FIFO cache
// per PE that inserts on a miss. Every replay path for those policies
// is held to it.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/refstream"
	"repro/internal/sim"
)

type page struct{ arr, idx int }

// Per-PE tallies, in the order the test compares them.
const (
	writes = iota
	local
	cached
	remote
	hits
	misses
	inserts
	evicts
)

// oracle is one run of one kernel on one machine.
type oracle struct {
	npe, ps, frames int
	fifo            bool
	owners          [][]int // [array][page] owning PE
	vals            [][]float64
	def             [][]bool
	cur             int // owner of the open assignment or reduction term; -1 outside

	count   [][8]int64 // per PE, indexed by the tallies above
	rows    [][]page   // per PE cache, most recent (LRU) or newest (FIFO) first
	traffic [][]int64
	sends   int64
	bcasts  int64
	err     error
}

// owner is the §2/§9 layout of page p of an array of n pages.
func owner(layout partition.Kind, npe, run, p, n int) int {
	switch layout {
	case partition.KindBlock: // the first n mod npe PEs own one page more
		q, r := n/npe, n%npe
		if p < r*(q+1) {
			return p / (q + 1)
		}
		return r + (p-r*(q+1))/q
	case partition.KindBlockCyclic:
		return (p / run) % npe
	}
	return p % npe
}

func (o *oracle) fail(err error) {
	if o.err == nil {
		o.err = err
	}
}

func (o *oracle) BeginAssign(a *loops.Arr, lin int) bool {
	if o.cur >= 0 {
		o.fail(fmt.Errorf("nested assignment to %s[%d]", a.Name, lin))
		return false
	}
	o.cur = o.owners[a.ID][lin/o.ps]
	return true
}

func (o *oracle) FinishAssign(a *loops.Arr, lin int, v float64) {
	if o.def[a.ID][lin] {
		o.fail(fmt.Errorf("second write to %s[%d]", a.Name, lin))
	}
	o.vals[a.ID][lin], o.def[a.ID][lin] = v, true
	o.count[o.cur][writes]++
	o.cur = -1
}

func (o *oracle) Read(a *loops.Arr, lin int) float64 {
	if !o.def[a.ID][lin] {
		o.fail(fmt.Errorf("read of undefined %s[%d]", a.Name, lin))
	}
	if o.cur >= 0 {
		o.read(o.cur, page{a.ID, lin / o.ps})
	} else {
		for pe := 0; pe < o.npe; pe++ { // a control read: every PE executes it
			o.read(pe, page{a.ID, lin / o.ps})
		}
	}
	return o.vals[a.ID][lin]
}

// read charges one read of page pg to pe: local, a cache hit, or a
// remote fetch (request and reply) cached on arrival.
func (o *oracle) read(pe int, pg page) {
	own, c := o.owners[pg.arr][pg.idx], &o.count[pe]
	if own == pe {
		c[local]++
		return
	}
	row := o.rows[pe]
	for i, q := range row {
		if q == pg {
			if !o.fifo { // LRU: the page becomes the most recent
				copy(row[1:i+1], row[:i])
				row[0] = pg
			}
			c[cached]++
			c[hits]++
			return
		}
	}
	c[remote]++
	c[misses]++
	o.traffic[pe][own]++
	o.traffic[own][pe]++
	if o.frames == 0 {
		return
	}
	c[inserts]++
	row = append([]page{pg}, row...)
	if len(row) > o.frames {
		row = row[:o.frames]
		c[evicts]++
	}
	o.rows[pe] = row
}

// Reduce is the §9 host-processor collection: the owner of driver[i]
// evaluates term i, every PE holding a term sends one partial to the
// host (array ID mod NPE), and the host broadcasts the result.
func (o *oracle) Reduce(op loops.Op, driver *loops.Arr, lo, hi int, term func(int) float64) (float64, int) {
	held := make([]bool, o.npe)
	acc, at := 0.0, -1
	for i := lo; i < hi; i++ {
		o.cur = o.owners[driver.ID][i/o.ps]
		v := term(i)
		held[o.cur] = true
		o.cur = -1
		if i == lo {
			acc, at = v, i
		} else {
			acc, at = loops.CombineReduce(op, acc, at, v, i)
		}
		if op == loops.OpSum {
			at = -1
		}
	}
	host := driver.ID % o.npe
	for pe, h := range held {
		if h {
			o.sends++
			if pe != host {
				o.traffic[pe][host]++
			}
		}
	}
	if hi > lo {
		o.bcasts += int64(o.npe - 1)
		for pe := range o.npe {
			if pe != host {
				o.traffic[host][pe]++
			}
		}
	}
	return acc, at
}

// runOracle executes k at size n on the machine cfg describes.
func runOracle(k *loops.Kernel, n int, cfg sim.Config) (*oracle, error) {
	npe := cfg.NPE
	o := &oracle{npe: npe, ps: cfg.PageSize, frames: cfg.CacheElems / cfg.PageSize,
		fifo: cfg.Policy == cache.FIFO, cur: -1,
		count: make([][8]int64, npe), rows: make([][]page, npe), traffic: make([][]int64, npe)}
	for pe := range o.traffic {
		o.traffic[pe] = make([]int64, npe)
	}
	specs := k.Arrays(n)
	ctx, err := loops.Bind(o, specs)
	if err != nil {
		return nil, err
	}
	for i, a := range ctx.Arrays() {
		elems := a.Len()
		pages := (elems + o.ps - 1) / o.ps
		own := make([]int, pages)
		for p := range own {
			own[p] = owner(cfg.Layout, npe, cfg.LayoutRun, p, pages)
		}
		o.owners = append(o.owners, own)
		o.vals = append(o.vals, make([]float64, elems))
		o.def = append(o.def, make([]bool, elems))
		for j := 0; specs[i].Init != nil && j < elems; j++ {
			o.vals[i][j], o.def[i][j] = specs[i].Init(j)
		}
	}
	k.Run(ctx, n)
	return o, o.err
}

// hostKernel is a test-only inner product whose reduction driver is
// array 1. Every built-in reduces over array 0, whose host is PE 0
// under any rule that ignores the array; this kernel's host is PE 1 at
// NPE >= 2, so it holds replay to the §9 rule (host = array ID mod NPE).
func hostKernel() *loops.Kernel {
	return &loops.Kernel{
		Key: "host1", Name: "inner product reduced over array 1", DefaultN: 40, MinN: 1,
		Arrays: func(n int) []loops.Spec {
			return []loops.Spec{
				{Name: "Z", Dims: []int{n + 1}, Init: loops.InitAll(func(i int) float64 { return float64(i%7) + 1 })},
				{Name: "X", Dims: []int{n + 1}, Init: loops.InitAll(func(i int) float64 { return float64(i%5) - 2 })},
				{Name: "Q", Dims: []int{1}},
			}
		},
		Run: func(c *loops.Ctx, n int) {
			z, x, q := c.A("Z"), c.A("X"), c.A("Q")
			v := c.ReduceSum(x, 1, n+1, func(k int) float64 { return z.Get(k) * x.Get(k) })
			q.Set(func() float64 { return v }, 0)
		},
		Outputs: []string{"Q"},
	}
}

// TestReplayMatchesOracle holds Replayer.Run to the oracle on every
// kernel and on hostKernel, at a small size, over a seeded sample of
// LRU, FIFO and frameless machines: every layout, NPE up to 64 (mostly
// not powers of two) and 0–130 frames. A second leg classifies each kernel's sample
// as one RunBatchN group, where a small LRU configuration sits alone in
// its owner map and so takes packed SWAR rows, which a
// one-configuration call never does; between them the legs reach every
// path those policies take. Clock and Random are held to cache.Cache
// instead (FuzzPolicyRowsMatchCache, TestPolicyRowsPinned).
func TestReplayMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	frameRanges := [][2]int{{0, 0}, {1, 8}, {9, 64}, {65, 130}}
	reg := obs.NewRegistry()
	r := refstream.NewReplayer()
	r.Metrics = reg
	batch := refstream.NewReplayer()
	batch.Metrics = reg
	for _, k := range append(loops.All(), hostKernel()) {
		n := k.ClampN(40)
		st, err := refstream.Capture(k, n)
		if err != nil {
			t.Fatal(err)
		}
		var cfgs []sim.Config
		var oracles []*oracle
		for i := range 16 {
			fr := frameRanges[i%len(frameRanges)]
			ps := []int{1, 4, 7, 16, 32}[rng.Intn(5)]
			cfg := sim.Config{
				NPE:        1 + rng.Intn(64),
				PageSize:   ps,
				CacheElems: (fr[0]+rng.Intn(fr[1]-fr[0]+1))*ps + rng.Intn(ps),
				Policy:     []cache.Policy{cache.LRU, cache.FIFO}[i/len(frameRanges)%2],
				Layout:     partition.Kind(rng.Intn(3)),
				LayoutRun:  1 + rng.Intn(5),
			}
			o, err := runOracle(k, n, cfg)
			if err != nil {
				t.Fatalf("%s %+v: oracle: %v", k.Key, cfg, err)
			}
			res, err := r.Run(st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, "Run", k.Key, n, cfg, res, o)
			cfgs, oracles = append(cfgs, cfg), append(oracles, o)
		}
		got, err := batch.RunBatchN(st, cfgs, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			checkOracle(t, "RunBatchN", k.Key, n, cfg, got[i], oracles[i])
		}
	}
	for _, p := range []string{"fold", "hist", "swar", "stack", "policy"} {
		if reg.Counter(refstream.MetricBatchPathPrefix+p).Value() == 0 {
			t.Errorf("the sample never reached path %s", p)
		}
	}
}

// checkOracle fails t unless res carries the oracle's counters, cache
// statistics, traffic and reduction tallies.
func checkOracle(t *testing.T, leg, key string, n int, cfg sim.Config, res *sim.Result, o *oracle) {
	t.Helper()
	for pe, c := range res.PerPE {
		cs := res.Cache[pe]
		got := [8]int64{c.Writes, c.LocalReads, c.CachedReads, c.RemoteReads, cs.Hits, cs.Misses, cs.Inserts, cs.Evictions}
		if want := o.count[pe]; got != want || cs.PartialMisses != 0 || cs.Refreshes != 0 {
			t.Fatalf("%s: %s n=%d %+v PE %d: replay %v %+v, oracle %v", leg, key, n, cfg, pe, got, cs, want)
		}
		for q, m := range res.Traffic[pe] {
			if m != o.traffic[pe][q] {
				t.Fatalf("%s: %s n=%d %+v: traffic[%d][%d] = %d, oracle %d", leg, key, n, cfg, pe, q, m, o.traffic[pe][q])
			}
		}
	}
	if res.ReduceSends != o.sends || res.ReduceBcasts != o.bcasts {
		t.Fatalf("%s: %s n=%d %+v: reduce %d/%d, oracle %d/%d", leg, key, n, cfg, res.ReduceSends, res.ReduceBcasts, o.sends, o.bcasts)
	}
}
