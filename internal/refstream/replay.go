package refstream

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ErrUnsupported reports a configuration that replay cannot serve and
// that must fall back to direct execution: one that models partial page
// fills (classification then depends on the defined-bit history, which
// replay deliberately does not carry).
var ErrUnsupported = errors.New("refstream: configuration requires direct execution")

// Eligible reports whether cfg can be served by replay. Ineligible
// configurations are exactly the ones ErrUnsupported describes.
func Eligible(cfg sim.Config) bool {
	return !cfg.ModelPartialFill
}

// Replayer classifies captured reference streams under arbitrary
// machine configurations. It owns every reusable allocation of the
// replay path — owner tables, slot caches, counters, the traffic slab —
// so its steady state allocates nothing beyond the returned Result.
// A Replayer is not safe for concurrent use; give each worker its own.
// Distinct Replayers may replay the same Stream concurrently, and a
// parallel RunBatch fans its partitions out over the same shared
// stream internally (batch.go).
//
// Run classifies one configuration per stream pass; RunBatch classifies
// a whole capture group of configurations (batch.go), cut into
// cost-bounded chunks that up to Workers goroutines share.
type Replayer struct {
	// Metrics, when non-nil, receives the batch-replay counters
	// (MetricBatchGroups, MetricBatchConfigsPerPass,
	// MetricBatchDecodePasses, MetricBatchPartitions and the
	// MetricBatchPathPrefix family). Nil disables them.
	Metrics *obs.Registry

	// Workers bounds the fan-out RunBatch may use: 0 or 1 keeps every
	// batch on the calling goroutine, n > 1 lets a group of several
	// chunks classify up to n of them concurrently. Output is
	// byte-identical either way. RunBatchN overrides it per call.
	Workers int

	npe       int
	frameless bool // the configured cache holds zero page frames
	pageBase  []int32
	owners    []int32
	perPE     stats.PerPE
	trafBuf   []int64 // flat npe×npe traffic matrix, row-major
	particip  []bool

	batchWorker // partition 0's state; Run shares its caches and layout memo

	chunks []Chunk // Cut's output, reused across calls
	target int64   // tests only: overrides chunkTarget when non-zero

	// RunBatchN's distinct representatives (by position in reps), each
	// configuration's representative and the representatives' Results,
	// reused across calls.
	repIdx map[sim.Config]int
	reps   []sim.Config
	repOf  []int
	repOut []*sim.Result

	// Parallel RunBatchN: the extra workers (grown on demand and
	// reused) and each chunk's outcome.
	extra   []*batchWorker
	parErrs []error
}

// layoutKey identifies a partition layout: the full parameter set
// partition.Make consumes. Layouts are stateless value types, so
// memoizing the boxed interface keeps steady-state replay allocation-free
// for the non-default layout kinds too.
type layoutKey struct {
	kind  partition.Kind
	npe   int
	pages int
	run   int
}

// layout returns the memoized partition layout for the key, building it
// on first use.
func (w *batchWorker) layout(kind partition.Kind, npe, pages, run int) (partition.Layout, error) {
	lk := layoutKey{kind, npe, pages, run}
	if l, ok := w.layouts[lk]; ok {
		return l, nil
	}
	l, err := partition.Make(kind, npe, pages, run)
	if err != nil {
		return nil, err
	}
	if w.layouts == nil {
		w.layouts = make(map[layoutKey]partition.Layout)
	}
	w.layouts[lk] = l
	return l, nil
}

// validateConfig rejects configurations replay cannot serve or that no
// engine accepts; Run and RunBatch share it so a batch fails with
// exactly the error a single-config replay of the same point reports.
func validateConfig(cfg sim.Config) error {
	if !Eligible(cfg) {
		return fmt.Errorf("%w (partial fill)", ErrUnsupported)
	}
	if cfg.NPE <= 0 {
		return fmt.Errorf("refstream: NPE must be positive, got %d", cfg.NPE)
	}
	if cfg.PageSize <= 0 {
		return fmt.Errorf("refstream: page size must be positive, got %d", cfg.PageSize)
	}
	if cfg.CacheElems < 0 {
		return fmt.Errorf("refstream: negative cache size %d", cfg.CacheElems)
	}
	return nil
}

// NewReplayer returns an empty Replayer; buffers grow on first use.
func NewReplayer() *Replayer { return &Replayer{} }

// Run classifies the stream under cfg and returns a Result that is
// bit-identical to sim.Run(st.Kernel, st.N, cfg) for every eligible
// configuration: per-PE counters, cache statistics, the traffic
// matrix, reduction sends/broadcasts, and checksums all match. The
// returned Result is independent of the Replayer, except that
// Checksums aliases the stream's memoized (immutable) slice.
func (r *Replayer) Run(st *Stream, cfg sim.Config) (*sim.Result, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}

	// Machine-property setup: page table, owner tables, caches — the
	// same derivation sim.Scratch.Run performs, minus value storage.
	npe := cfg.NPE
	var totalPages int
	r.pageBase, totalPages = appendPageTable(r.pageBase, st.ArrayLens, cfg.PageSize)
	r.owners = grown(r.owners, totalPages)
	for i, elems := range st.ArrayLens {
		pages := (elems + cfg.PageSize - 1) / cfg.PageSize
		l, err := r.layout(cfg.Layout, npe, pages, cfg.LayoutRun)
		if err != nil {
			return nil, fmt.Errorf("refstream: %s: %w", st.Kernel.Key, err)
		}
		base := r.pageBase[i]
		for p := 0; p < pages; p++ {
			r.owners[base+int32(p)] = int32(l.Owner(p))
		}
	}
	if cap(r.perPE) < npe {
		r.perPE = make(stats.PerPE, npe)
	} else {
		r.perPE = r.perPE[:npe]
		for i := range r.perPE {
			r.perPE[i] = stats.Counters{}
		}
	}
	if len(r.caches) < npe {
		r.caches = append(r.caches, make([]*cache.Cache, npe-len(r.caches))...)
	}
	for pe := 0; pe < npe; pe++ {
		if r.caches[pe] == nil {
			c, err := cache.NewSlots(cfg.CacheElems, cfg.PageSize, cfg.Policy, totalPages)
			if err != nil {
				return nil, fmt.Errorf("refstream: %s: %w", st.Kernel.Key, err)
			}
			r.caches[pe] = c
		} else if err := r.caches[pe].ReconfigureSlots(cfg.CacheElems, cfg.PageSize, cfg.Policy, totalPages); err != nil {
			return nil, fmt.Errorf("refstream: %s: %w", st.Kernel.Key, err)
		}
	}
	r.npe = npe
	// A cache with no page frames (capacity below one page, or a
	// pageless address space) deterministically misses every lookup, so
	// the per-event cache machinery can be bypassed: each non-local
	// read is remote, and the per-PE miss count equals its remote-read
	// count. The caches were still constructed above, so configuration
	// validation matches the direct path exactly.
	r.frameless = r.caches[0].MaxPages() == 0 || totalPages == 0
	r.trafBuf = grown(r.trafBuf, npe*npe)
	r.particip = grown(r.particip, npe)

	// Classification pass. When the configuration's classification is
	// order-free — a frameless cache misses every lookup, and on one PE
	// every access is local — per-PE counters are pure sums over access
	// counts, so replay walks the stream's run-length histogram instead
	// of the event stream: typically two to three orders of magnitude
	// fewer iterations. Otherwise, stream the decoded events through
	// the owner tables and slot caches; cur mirrors the engine's curPE
	// state machine. The fixed-width head and page-id columns are
	// memoized on the Stream, so per event this loop is two slice reads
	// plus the classification itself; the dominant local-read outcome
	// is decided inline, everything slower goes through classifyMiss.
	// Hoisting the columns and counters into locals (and pinning the
	// gid column's length to the head column's) keeps the loop free of
	// repeated pointer loads and bounds checks.
	var reduceS, reduceB int64
	if agg := st.frameAgg(cfg.PageSize); (r.frameless || npe == 1) && agg.ok {
		reduceS, reduceB = r.runAggregate(st, cfg, agg)
	} else if s, b, err := r.runEvents(st, cfg); err != nil {
		return nil, err
	} else {
		reduceS, reduceB = s, b
	}

	// The Result owns fresh copies of the counters; Checksums shares
	// the stream's memoized slice (immutable by contract).
	res := &sim.Result{
		Kernel: st.Kernel.Key, N: st.N, Config: cfg,
		PerPE:        append(stats.PerPE(nil), r.perPE...),
		ReduceSends:  reduceS,
		ReduceBcasts: reduceB,
		Checksums:    st.Checksums,
	}
	res.Totals = res.PerPE.Totals()
	slab := append([]int64(nil), r.trafBuf...)
	res.Traffic = make([][]int64, npe)
	for i := range res.Traffic {
		res.Traffic[i] = slab[i*npe : (i+1)*npe : (i+1)*npe]
	}
	res.Cache = make([]cache.Stats, npe)
	for pe := 0; pe < npe; pe++ {
		if r.frameless {
			res.Cache[pe] = cache.Stats{Misses: r.perPE[pe].RemoteReads}
		} else {
			res.Cache[pe] = r.caches[pe].Stats()
		}
	}
	return res, nil
}

// runEvents classifies the stream one event at a time — the general
// path, required whenever a framed cache on more than one PE makes
// classification order-dependent.
func (r *Replayer) runEvents(st *Stream, cfg sim.Config) (reduceS, reduceB int64, err error) {
	heads, _ := st.decoded()
	gids := st.gidColumn(cfg.PageSize)
	if len(gids) != len(heads) {
		return 0, 0, fmt.Errorf("refstream: %s: corrupt stream: %d gids for %d events", st.Kernel.Key, len(gids), len(heads))
	}
	gids = gids[:len(heads)]
	npe := r.npe
	owners := r.owners
	perPE := r.perPE
	traf := r.trafBuf
	frameless := r.frameless
	var (
		cur            = -1
		reduceAnyTerms bool
	)
	for i, h := range heads {
		switch h & 7 {
		case opRead:
			gid := gids[i]
			owner := int(owners[gid])
			if cur >= 0 {
				switch {
				case owner == cur:
					perPE[cur].LocalReads++
				case frameless: // every lookup misses: remote, no cache traffic to model
					perPE[cur].RemoteReads++
					traf[cur*npe+owner]++
					traf[owner*npe+cur]++
				default:
					r.classifyMiss(cur, owner, gid)
				}
			} else {
				// Replicated control read: every PE executes it.
				for pe := 0; pe < npe; pe++ {
					switch {
					case owner == pe:
						perPE[pe].LocalReads++
					case frameless:
						perPE[pe].RemoteReads++
						traf[pe*npe+owner]++
						traf[owner*npe+pe]++
					default:
						r.classifyMiss(pe, owner, gid)
					}
				}
			}
		case opAssign:
			cur = int(owners[gids[i]])
			perPE[cur].Writes++ // writes are always local (§7)
		case opEnd:
			cur = -1
		case opTerm:
			cur = int(owners[gids[i]])
			r.particip[cur] = true
			reduceAnyTerms = true
		case opEndReduce:
			// Host-processor collection (§9): one send per
			// participating PE, then a broadcast of the result.
			cur = -1
			host := int(h>>3) % npe
			for pe, p := range r.particip {
				if !p {
					continue
				}
				reduceS++
				if pe != host {
					r.trafBuf[pe*npe+host]++
				}
				r.particip[pe] = false
			}
			if reduceAnyTerms {
				reduceB += int64(npe - 1)
				for pe := 0; pe < npe; pe++ {
					if pe != host {
						r.trafBuf[host*npe+pe]++
					}
				}
			}
			reduceAnyTerms = false
		default:
			return 0, 0, fmt.Errorf("refstream: %s: corrupt stream: opcode %d", st.Kernel.Key, h&7)
		}
	}
	return reduceS, reduceB, nil
}

// foldEligible reports whether an order-free configuration can be
// classified from the stream's fold table: the folded page key must
// determine the owner, which holds for modulo layout with a
// power-of-two machine width up to the fold size — and trivially on
// one PE, where every layout maps every page to PE 0.
func foldEligible(cfg sim.Config, npe int) bool {
	return npe == 1 ||
		(cfg.Layout == partition.KindModulo && npe <= foldSize && npe&(npe-1) == 0)
}

// runAggregate classifies an order-free configuration (frameless
// cache, or a single PE where every access is local and the cache is
// never consulted) without touching the event stream. Configurations
// whose owner function survives the fold are served by the fold
// table's fixed-size walk; the rest — block and block-cyclic layouts,
// non-power-of-two widths — walk the lazily built run-length read
// histogram. Either way the sums are exactly what runEvents would
// accumulate event by event, because without cache state no outcome
// depends on access order.
func (r *Replayer) runAggregate(st *Stream, cfg sim.Config, a *frameAgg) (reduceS, reduceB int64) {
	if foldEligible(cfg, r.npe) {
		foldClassify(st.foldTable(cfg.PageSize), r.npe, r.perPE, r.trafBuf)
		return aggregateReduces(a, r.npe, r.owners, r.trafBuf, r.particip)
	}
	return aggregateClassify(a, st.readsHist(cfg.PageSize), r.npe, r.owners, r.perPE, r.trafBuf, r.particip)
}

// aggregateClassify is the histogram walk over explicit state views,
// so the batch replayer can classify each order-free configuration of
// a group against its own slice of the structure-of-arrays slabs.
// There is one definition of the walk; single-config replay delegates
// here, and the batch replayer reuses the write and reduce pieces for
// framed configurations too (their accounting never consults the
// cache, so it is order-free for every configuration class).
func aggregateClassify(a *frameAgg, h *readsHist, npe int, owners []int32, perPE stats.PerPE, traf []int64, particip []bool) (reduceS, reduceB int64) {
	aggregateWrites(a, owners, perPE)
	for _, run := range h.reads {
		ctxPE := int(owners[run.ctx])
		owner := int(owners[run.gid])
		if ctxPE == owner {
			perPE[ctxPE].LocalReads += run.count
		} else {
			perPE[ctxPE].RemoteReads += run.count
			traf[ctxPE*npe+owner] += run.count
			traf[owner*npe+ctxPE] += run.count
		}
	}
	for _, run := range h.ctrl {
		owner := int(owners[run.gid])
		perPE[owner].LocalReads += run.count
		for pe := 0; pe < npe; pe++ {
			if pe == owner {
				continue
			}
			perPE[pe].RemoteReads += run.count
			traf[pe*npe+owner] += run.count
			traf[owner*npe+pe] += run.count
		}
	}
	return aggregateReduces(a, npe, owners, traf, particip)
}

// aggregateWrites charges the histogram's assignment counts: writes are
// always local to the target page's owner, independent of cache state.
func aggregateWrites(a *frameAgg, owners []int32, perPE stats.PerPE) {
	for _, run := range a.assigns {
		perPE[owners[run.gid]].Writes += run.count
	}
}

// aggregateReduces charges the histogram's reduction runs: the
// host-processor collection and broadcast of §9, summed per run. The
// arithmetic never touches the cache, so it is exact for framed
// configurations as well, as long as the histogram is usable (a.ok).
func aggregateReduces(a *frameAgg, npe int, owners []int32, traf []int64, particip []bool) (reduceS, reduceB int64) {
	for _, rr := range a.reduces {
		if rr.gidHi == rr.gidLo {
			continue // zero terms: no participants, no broadcast
		}
		host := int(rr.array) % npe
		for g := rr.gidLo; g < rr.gidHi; g++ {
			particip[owners[g]] = true
		}
		for pe, p := range particip {
			if !p {
				continue
			}
			reduceS += rr.count
			if pe != host {
				traf[pe*npe+host] += rr.count
			}
			particip[pe] = false
		}
		reduceB += int64(npe-1) * rr.count
		for pe := 0; pe < npe; pe++ {
			if pe != host {
				traf[host*npe+pe] += rr.count
			}
		}
	}
	return reduceS, reduceB
}

// classifyMiss charges one non-local read of the element on global
// page gid, owned by owner, to PE pe: the pure-arithmetic core of
// sim's classification, with no value or defined-bit lookups. The
// in-page offset is irrelevant here — a PartialMiss needs a defined
// bitmap, and replay inserts pages with none (every cell defined),
// which is exactly the eligibility bound. The local-read and
// frameless-cache cases are decided inline in the replay loop; this
// call only runs when a real cache has to be consulted.
func (r *Replayer) classifyMiss(pe, owner int, gid int32) {
	switch r.caches[pe].LookupSlot(int(gid), 0) {
	case cache.Hit:
		r.perPE[pe].CachedReads++
	default: // Miss (PartialMiss cannot occur without partial-fill modeling)
		r.perPE[pe].RemoteReads++
		r.trafBuf[pe*r.npe+owner]++ // page request
		r.trafBuf[owner*r.npe+pe]++ // page reply
		r.caches[pe].InsertSlot(int(gid), nil)
	}
}
