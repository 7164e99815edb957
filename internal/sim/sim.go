// Package sim is the reproduction of the paper's simulator (§6): it
// executes a Livermore kernel once in program order, applies the
// automatic partitioning rules to every assignment, and classifies each
// array access as write / local read / cached read / remote read,
// per PE.
//
// The counting model is exactly equivalent to per-PE execution with
// owner-computes screening: the PE that owns an assignment's target
// element evaluates its right-hand side, so each read is charged to
// that owner; a PE's subsequence of the global program order is its own
// program order, so its private cache sees the same reference stream
// either way.
//
// Values are computed alongside the counts from dense ground-truth
// storage, so the counting simulator also validates single assignment
// and reproduces the sequential engine's results bit-for-bit.
//
// The hot path is fully slice-indexed: array storage lives in one slab,
// page ownership is precomputed into a dense page-id -> PE table
// (replacing a layout interface call per access), and the per-PE caches
// are count-only caches indexed by that dense page id. Every PE's
// counters are private to the run and merged once at the end, so
// parallel sweeps over independent runs share no mutable state. A
// Scratch retains all of these allocations between runs;
// internal/sweep gives one to each worker so a parameter sweep reaches
// a near-zero-allocation steady state.
//
// The package hosts a second loops.Engine on the same storage: the
// recording engine (record.go, Scratch.Record) executes a kernel with
// the same value work and single-assignment checks but no machine model
// at all, and writes down the reference stream — which element is
// touched, in what order, in which structural context. That stream is a
// pure function of (kernel, n), so internal/refstream classifies it
// under any configuration instead of re-executing; Run remains the
// reference those classifications are held bit-identical to, and the
// path for the configurations replay does not cover.
package sim

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/samem"
	"repro/internal/stats"
)

// Config selects the simulated machine (§6: "the parameters that we
// varied were: number of processors, page size").
type Config struct {
	NPE        int            // number of processing elements
	PageSize   int            // elements per page
	CacheElems int            // per-PE cache capacity in elements; 0 disables caching
	Policy     cache.Policy   // replacement policy (paper: LRU)
	Layout     partition.Kind // partitioning scheme (paper: modulo)
	LayoutRun  int            // run length for block-cyclic layouts
	// ModelPartialFill, when set, snapshots the defined bits at fetch
	// time so a cached page that was only partially filled forces a
	// re-fetch when an undefined cell is touched (§4/§8 note on
	// partially filled pages). The paper's published counts ignore this;
	// it is provided as an ablation.
	ModelPartialFill bool
}

// PaperConfig returns the paper's baseline: modulo layout, LRU, and the
// fixed 256-element cache of §6.
func PaperConfig(npe, pageSize int) Config {
	return Config{NPE: npe, PageSize: pageSize, CacheElems: 256, Policy: cache.LRU, Layout: partition.KindModulo}
}

// NoCacheConfig returns the paper's cache-less comparison point.
func NoCacheConfig(npe, pageSize int) Config {
	c := PaperConfig(npe, pageSize)
	c.CacheElems = 0
	return c
}

// Validate checks the configuration the way Run would: positive NPE
// and page size, non-negative cache capacity. Exported so front ends
// (e.g. the serving layer) reject bad configurations with the
// simulator's own rules instead of duplicating them.
func (c Config) Validate() error { return c.validate() }

func (c Config) validate() error {
	if c.NPE <= 0 {
		return fmt.Errorf("sim: NPE must be positive, got %d", c.NPE)
	}
	if c.PageSize <= 0 {
		return fmt.Errorf("sim: page size must be positive, got %d", c.PageSize)
	}
	if c.CacheElems < 0 {
		return fmt.Errorf("sim: negative cache size %d", c.CacheElems)
	}
	return nil
}

// Representative returns the cheapest configuration whose run is
// count-identical to c's: every Result field but Config agrees. The
// counts depend on a configuration only through the page→PE owner map
// and the cache's frame count, so axes that cannot change either are
// normalized away, in order:
//
//  1. modulo and block layouts ignore LayoutRun: it becomes 0;
//  2. block-cyclic with a run ≤ 1 is modulo (partition.Make runs
//     block-cyclic at 1 when given ≤ 0);
//  3. the cache holds CacheElems/PageSize frames, so CacheElems rounds
//     down to a multiple of PageSize;
//  4. with at most one frame every policy evicts the same page: LRU;
//  5. on one PE nothing is remote, so layout, run, cache and policy
//     are all inert: modulo, 0, no cache, LRU.
//
// An invalid configuration, an unknown policy or layout, and a
// partial-fill configuration (whose §4 re-fetches depend on the frame
// contents) are returned unchanged.
func (c Config) Representative() Config {
	if c.validate() != nil || c.ModelPartialFill ||
		c.Policy < cache.LRU || c.Policy > cache.Random ||
		c.Layout < partition.KindModulo || c.Layout > partition.KindBlockCyclic {
		return c
	}
	if c.Layout != partition.KindBlockCyclic {
		c.LayoutRun = 0
	} else if c.LayoutRun <= 1 {
		c.Layout, c.LayoutRun = partition.KindModulo, 0
	}
	c.CacheElems -= c.CacheElems % c.PageSize
	if c.CacheElems/c.PageSize <= 1 {
		c.Policy = cache.LRU
	}
	if c.NPE == 1 {
		c.Layout, c.LayoutRun, c.CacheElems, c.Policy = partition.KindModulo, 0, 0, cache.LRU
	}
	return c
}

// Result reports one simulated run. A Result is write-once: it is
// read-only from the moment an engine returns it, like a cell under
// single assignment. Results may therefore share slices — every
// replayed Result of one stream shares its Checksums, and the members
// of a configuration class (Config.Representative) share their
// representative's PerPE, Cache, Traffic and Checksums, each with its
// own Config. A caller that wants to change one copies it first.
type Result struct {
	Kernel string
	N      int
	Config Config

	PerPE  stats.PerPE // per-PE access counters
	Totals stats.Counters
	Cache  []cache.Stats // per-PE cache statistics

	// ReduceSends and ReduceBcasts count the host-processor reduction
	// messages (§9 mechanism) implied by the run.
	ReduceSends  int64
	ReduceBcasts int64

	// Traffic is the implied message matrix: Traffic[src][dst] counts
	// the messages PE src sends to PE dst (page requests to owners,
	// page replies back, reduction sends/broadcasts). It feeds the §9
	// network-contention analysis.
	Traffic [][]int64

	Checksums []loops.ArraySum // output checksums (must match RunSeq)
}

// RemotePercent returns the run's "% of Reads Remote".
func (r *Result) RemotePercent() float64 { return r.Totals.RemotePercent() }

// engine is the counting simulator's state for one run. All per-array
// storage is slab-allocated and indexed by precomputed bases so the
// per-access path is pure slice arithmetic; the slabs live on between
// runs when the engine is owned by a Scratch.
type engine struct {
	cfg   Config
	geoms []partition.Geometry

	valBase  []int   // valBase[a]: offset of array a in vals/defined
	pageBase []int32 // pageBase[a]: offset of array a in the page-id space
	vals     []float64
	defined  []bool
	owners   []int32 // dense page id -> owning PE

	caches  []*cache.Cache
	perPE   stats.PerPE
	traffic [][]int64
	trafBuf []int64 // backing slab for traffic rows

	participated []bool // per-PE reduction scratch, reused across Reduce calls
	reduceS      int64
	reduceB      int64
	curPE        int // owner of the open assignment; -1 outside
	err          error
}

// message accounts one implied interconnect message from src to dst.
func (e *engine) message(src, dst int) {
	if src != dst {
		e.traffic[src][dst]++
	}
}

func (e *engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// BeginAssign implements loops.Engine: the counting simulator evaluates
// every assignment once, attributing it to the owning PE.
func (e *engine) BeginAssign(a *loops.Arr, lin int) bool {
	if e.curPE != -1 {
		e.fail(fmt.Errorf("sim: nested assignment on %s[%d]", a.Name, lin))
		return false
	}
	e.curPE = e.ownerOf(a, lin)
	return true
}

// FinishAssign implements loops.Engine. The defined bitmap doubles as
// the single-assignment write-once check (what a standalone
// samem.Tracker would record): a second write to a defined cell is the
// paper's §3 runtime error.
func (e *engine) FinishAssign(a *loops.Arr, lin int, v float64) {
	pe := e.curPE
	e.curPE = -1
	at := e.valBase[a.ID] + lin
	if e.defined[at] {
		e.fail(&samem.DoubleWriteError{Array: a.Name, Index: lin})
		return
	}
	e.vals[at] = v
	e.defined[at] = true
	e.perPE[pe].Writes++ // writes are always local (§7)
}

// Read implements loops.Engine. Inside an assignment the read is
// classified for the owning PE; outside (a control read, executed by
// the replicated loop body on every PE) it is classified for all PEs.
func (e *engine) Read(a *loops.Arr, lin int) float64 {
	at := e.valBase[a.ID] + lin
	if !e.defined[at] {
		e.fail(fmt.Errorf("sim: read of undefined %s[%d]", a.Name, lin))
		return 0
	}
	if e.curPE >= 0 {
		e.classify(e.curPE, a, lin)
	} else {
		for pe := 0; pe < e.cfg.NPE; pe++ {
			e.classify(pe, a, lin)
		}
	}
	return e.vals[at]
}

// classify charges one read of a[lin] to PE pe.
func (e *engine) classify(pe int, a *loops.Arr, lin int) {
	g := e.geoms[a.ID]
	page := g.PageOf(lin)
	gid := e.pageBase[a.ID] + int32(page)
	owner := int(e.owners[gid])
	if owner == pe {
		e.perPE[pe].LocalReads++
		return
	}
	switch _, out := e.caches[pe].Lookup(int(gid), g.Offset(lin)); out {
	case cache.Hit:
		e.perPE[pe].CachedReads++
	case cache.Miss, cache.PartialMiss:
		// Remote fetch: the owner sends back the page, which is cached
		// locally (§4). A partial miss is the §4 re-fetch of a page that
		// was incomplete when first requested.
		e.perPE[pe].RemoteReads++
		e.message(pe, owner) // page request
		e.message(owner, pe) // page reply
		var def []bool
		if e.cfg.ModelPartialFill {
			lo, hi := g.PageBounds(page)
			base := e.valBase[a.ID]
			def = e.defined[base+lo : base+hi]
		}
		e.caches[pe].Insert(int(gid), nil, def)
	}
}

func (e *engine) ownerOf(a *loops.Arr, lin int) int {
	return int(e.owners[e.pageBase[a.ID]+int32(e.geoms[a.ID].PageOf(lin))])
}

// Reduce implements loops.Engine via the host-processor collection
// mechanism (§9): each PE evaluates the terms whose driver elements it
// owns; PEs holding at least one term send a partial to the host and
// the host broadcasts the combined scalar.
func (e *engine) Reduce(op loops.Op, driver *loops.Arr, lo, hi int, term func(i int) float64) (float64, int) {
	if e.curPE != -1 {
		e.fail(fmt.Errorf("sim: reduction inside an assignment"))
		return 0, -1
	}
	e.participated = grown(e.participated, e.cfg.NPE)
	participated := e.participated
	acc, at := 0.0, -1
	first := true
	for i := lo; i < hi; i++ {
		pe := e.ownerOf(driver, i)
		e.curPE = pe
		v := term(i)
		e.curPE = -1
		participated[pe] = true
		acc, at = foldTerm(op, first, acc, at, v, i)
		first = false
	}
	host := driver.ID % e.cfg.NPE // hostproc convention: arrays spread over PEs
	for pe, p := range participated {
		if p {
			e.reduceS++
			e.message(pe, host)
		}
	}
	if !first {
		e.reduceB += int64(e.cfg.NPE - 1) // host broadcasts the result
		for pe := 0; pe < e.cfg.NPE; pe++ {
			if pe != host {
				e.message(host, pe)
			}
		}
	}
	return acc, at
}

// foldTerm folds term i's value v into the running reduction (acc, at);
// first marks the reduction's opening term. Both engines of this
// package combine through it, so a recorded run reproduces a counted
// run's reduction results bit for bit.
func foldTerm(op loops.Op, first bool, acc float64, at int, v float64, i int) (float64, int) {
	if op == loops.OpSum {
		i = -1
	}
	if first {
		return v, i
	}
	return loops.CombineReduce(op, acc, at, v, i)
}

// Scratch owns the simulator's reusable allocations: the value and
// defined-bit slabs, the owner tables, the per-PE caches (whose
// frames are recycled across runs), the traffic matrix and the
// recording engine's event columns. Reusing a Scratch across runs
// removes nearly all steady-state allocation from a parameter sweep. A
// Scratch is not safe for concurrent use; give each worker its own.
type Scratch struct {
	e   engine   // the counting engine (Run)
	rec recorder // the recording engine (Record), on the same slabs

	// Metrics, when non-nil, receives per-run observability signals
	// (run count, wall time); when nil the process-wide obs.Default()
	// is consulted, which is itself nil unless a front end enabled it.
	// Instrumentation is per-run, not per-access, and never influences
	// the computed Result.
	Metrics *obs.Registry

	// The bound loops.Ctx of the last (kernel, n) executed: array
	// handles are pure functions of the kernel and the problem size, so
	// consecutive executions of one pair reuse them (Rebind points them
	// at whichever of the two engines executes next). Every execution
	// refills the slabs from the Init functions, whose input generators
	// read tables computed once per process (loops.Series).
	ctxKernel *loops.Kernel
	ctxN      int
	ctxSpecs  []loops.Spec
	ctx       *loops.Ctx
}

// Observability signal names recorded by Scratch.Run.
const (
	MetricRuns      = "sim.runs"
	MetricRunMicros = "sim.run_us"
)

// registry resolves the effective metrics registry for this Scratch.
func (s *Scratch) registry() *obs.Registry {
	if s.Metrics != nil {
		return s.Metrics
	}
	return obs.Default()
}

// NewScratch returns an empty Scratch. Slabs grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// grown returns buf resized to n, reusing its backing array when
// possible, with every element zeroed.
func grown[T int | int32 | int64 | float64 | bool](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// load prepares the ground-truth storage both engines execute against:
// it binds kernel k at (already clamped) problem size n to eng, lays the
// arrays out in the value and defined-bit slabs, and applies the
// initialization data.
func (s *Scratch) load(k *loops.Kernel, n int, eng loops.Engine) (*loops.Ctx, error) {
	if s.ctxKernel != k || s.ctxN != n {
		specs := k.Arrays(n)
		ctx, err := loops.Bind(eng, specs)
		if err != nil {
			return nil, fmt.Errorf("sim: %s: %w", k.Key, err)
		}
		s.ctxSpecs, s.ctx = specs, ctx
		s.ctxKernel, s.ctxN = k, n
	}
	s.ctx.Rebind(eng)
	arrs := s.ctx.Arrays()

	e := &s.e
	e.valBase = e.valBase[:0]
	totalElems := 0
	for _, a := range arrs {
		e.valBase = append(e.valBase, totalElems)
		totalElems += a.Len()
	}
	e.vals = grown(e.vals, totalElems)
	e.defined = grown(e.defined, totalElems)
	for i, a := range arrs {
		init := s.ctxSpecs[i].Init
		if init == nil {
			continue
		}
		vb, elems := e.valBase[i], a.Len()
		vals, def := e.vals[vb:vb+elems], e.defined[vb:vb+elems]
		for j := range vals {
			if v, ok := init(j); ok {
				vals[j], def[j] = v, true
			}
		}
	}
	return s.ctx, nil
}

// checksums sums the defined cells of each of k's output arrays as the
// slabs stand after an execution.
func (s *Scratch) checksums(k *loops.Kernel) []loops.ArraySum {
	sums := make([]loops.ArraySum, 0, len(k.Outputs))
	for _, name := range k.Outputs {
		a := s.ctx.A(name)
		vb, elems := s.e.valBase[a.ID], a.Len()
		vals, def := s.e.vals[vb:vb+elems], s.e.defined[vb:vb+elems]
		cs := loops.ArraySum{Name: name, Elems: elems}
		for j, d := range def {
			if d {
				cs.Sum += vals[j]
				cs.Defined++
			}
		}
		sums = append(sums, cs)
	}
	return sums
}

// Run simulates kernel k at problem size n under cfg, reusing the
// Scratch's allocations. The returned Result is independent of the
// Scratch and remains valid after further runs.
func (s *Scratch) Run(k *loops.Kernel, n int, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	reg := s.registry()
	var runStart time.Time
	if reg != nil {
		runStart = time.Now()
	}
	n = k.ClampN(n)
	e := &s.e
	e.cfg = cfg
	e.curPE = -1
	e.err = nil
	e.reduceS, e.reduceB = 0, 0

	ctx, err := s.load(k, n, e)
	if err != nil {
		return nil, err
	}

	// Lay the arrays out in the dense page-id space and fill the owner
	// table.
	e.geoms = e.geoms[:0]
	e.pageBase = e.pageBase[:0]
	totalPages := 0
	for _, a := range ctx.Arrays() {
		g, err := partition.NewGeometry(a.Len(), cfg.PageSize)
		if err != nil {
			return nil, fmt.Errorf("sim: %s: %w", k.Key, err)
		}
		e.geoms = append(e.geoms, g)
		e.pageBase = append(e.pageBase, int32(totalPages))
		totalPages += g.Pages()
	}
	e.owners = grown(e.owners, totalPages)
	for i, g := range e.geoms {
		l, err := partition.Make(cfg.Layout, cfg.NPE, g.Pages(), cfg.LayoutRun)
		if err != nil {
			return nil, fmt.Errorf("sim: %s: %w", k.Key, err)
		}
		base := e.pageBase[i]
		for p := 0; p < g.Pages(); p++ {
			e.owners[base+int32(p)] = int32(l.Owner(p))
		}
	}

	// Per-PE state: counters, caches, traffic rows.
	if cap(e.perPE) < cfg.NPE {
		e.perPE = make(stats.PerPE, cfg.NPE)
	} else {
		e.perPE = e.perPE[:cfg.NPE]
		for i := range e.perPE {
			e.perPE[i] = stats.Counters{}
		}
	}
	if len(e.caches) < cfg.NPE {
		e.caches = append(e.caches, make([]*cache.Cache, cfg.NPE-len(e.caches))...)
	}
	for pe := 0; pe < cfg.NPE; pe++ {
		if e.caches[pe] == nil {
			c, err := cache.New(cfg.CacheElems, cfg.PageSize, cfg.Policy, totalPages)
			if err != nil {
				return nil, fmt.Errorf("sim: %s: %w", k.Key, err)
			}
			e.caches[pe] = c
		} else if err := e.caches[pe].Reset(cfg.CacheElems, cfg.PageSize, cfg.Policy, totalPages); err != nil {
			return nil, fmt.Errorf("sim: %s: %w", k.Key, err)
		}
	}
	e.trafBuf = grown(e.trafBuf, cfg.NPE*cfg.NPE)
	if cap(e.traffic) < cfg.NPE {
		e.traffic = make([][]int64, cfg.NPE)
	}
	e.traffic = e.traffic[:cfg.NPE]
	for i := range e.traffic {
		e.traffic[i] = e.trafBuf[i*cfg.NPE : (i+1)*cfg.NPE]
	}

	k.Run(ctx, n)
	if e.err != nil {
		return nil, fmt.Errorf("sim: %s: %w", k.Key, e.err)
	}

	// The Result owns fresh copies of everything that must outlive the
	// Scratch's next run.
	res := &Result{
		Kernel: k.Key, N: n, Config: cfg,
		PerPE:        append(stats.PerPE(nil), e.perPE...),
		ReduceSends:  e.reduceS,
		ReduceBcasts: e.reduceB,
	}
	res.Totals = res.PerPE.Totals()
	res.Traffic = TrafficMatrix(e.trafBuf, cfg.NPE)
	res.Cache = make([]cache.Stats, cfg.NPE)
	for pe := 0; pe < cfg.NPE; pe++ {
		res.Cache[pe] = e.caches[pe].Stats()
	}
	res.Checksums = s.checksums(k)
	if reg != nil {
		reg.Counter(MetricRuns).Inc()
		reg.Histogram(MetricRunMicros, obs.MicrosBuckets).Observe(time.Since(runStart).Microseconds())
	}
	return res, nil
}

// TrafficMatrix copies an npe*npe row-major message-count slab into a
// fresh Result.Traffic matrix: one slab and one row-header slice,
// keeping Result construction O(1) allocations. Every engine lays its
// traffic out through it.
func TrafficMatrix(buf []int64, npe int) [][]int64 {
	slab := append([]int64(nil), buf[:npe*npe]...)
	rows := make([][]int64, npe)
	for i := range rows {
		rows[i] = slab[i*npe : (i+1)*npe : (i+1)*npe]
	}
	return rows
}

// Run simulates kernel k at problem size n under cfg and returns the
// access-distribution result. It allocates fresh simulator state; use a
// Scratch to amortize that over many runs.
func Run(k *loops.Kernel, n int, cfg Config) (*Result, error) {
	return NewScratch().Run(k, n, cfg)
}
