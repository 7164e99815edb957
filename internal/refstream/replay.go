package refstream

import (
	"errors"
	"fmt"

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
// replay path — owner tables, cache rows, counters, the traffic slab —
// so its steady state allocates nothing beyond the returned Results.
// A Replayer is not safe for concurrent use; give each worker its own.
// Distinct Replayers may replay the same Stream concurrently: they
// share only its read-only decoded columns and memoized summaries.
//
// There is one replay engine, the chunk classifier of batch.go: Run is
// a chunk of one configuration, and RunBatchN classifies a whole
// capture group, cut into cost-bounded chunks that run one after
// another on the calling goroutine. A caller that wants one group
// spread over cores cuts it itself and hands the chunks to several
// Replayers (Cut and RunChunk), as internal/sweep does.
type Replayer struct {
	// Metrics, when non-nil, receives the batch-replay counters
	// (MetricBatchGroups, MetricBatchConfigsPerPass,
	// MetricBatchDecodePasses, MetricBatchPartitions and the
	// MetricBatchPathPrefix family). Nil disables them.
	Metrics *obs.Registry

	// One chunk's worth of mutable replay state, reused chunk after
	// chunk: the memoized layout table, the structure-of-arrays slabs
	// and the two-level scratch.
	layouts map[layoutKey]partition.Layout // memoized boxed layouts
	bat     batchState
	two     twoLevel

	chunks  []Chunk  // Cut's output, reused across calls
	cutMaps []cutMap // Cut's owner-map tally of one unit, reused
	target  int64    // tests only: overrides chunkTarget when non-zero

	// RunBatchN's distinct representatives (by position in reps), each
	// configuration's representative and the representatives' Results,
	// reused across calls.
	repIdx map[sim.Config]int
	reps   []sim.Config
	repOf  []int
	repOut []*sim.Result
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
func (r *Replayer) layout(kind partition.Kind, npe, pages, run int) (partition.Layout, error) {
	lk := layoutKey{kind, npe, pages, run}
	if l, ok := r.layouts[lk]; ok {
		return l, nil
	}
	l, err := partition.Make(kind, npe, pages, run)
	if err != nil {
		return nil, err
	}
	if r.layouts == nil {
		r.layouts = make(map[layoutKey]partition.Layout)
	}
	r.layouts[lk] = l
	return l, nil
}

// validateConfig rejects configurations replay cannot serve or that no
// engine accepts. The chunk classifier runs it on every configuration,
// and Cut uses it to skip invalid ones when estimating cost.
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
//
// Run is a chunk of one configuration, so it builds no read column (see
// readColumn); its error is the chunk's, without the *BatchError
// position.
func (r *Replayer) Run(st *Stream, cfg sim.Config) (*sim.Result, error) {
	var out [1]*sim.Result
	if err := r.runChunk(st, []sim.Config{cfg}, out[:], true); err != nil {
		return nil, err.(*BatchError).Err // runChunk blames every failure on a position
	}
	return out[0], nil
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

// aggregateClassify classifies an order-free configuration (frameless
// cache, or a single PE where every access is local and the cache is
// never consulted) from the run-length read histogram, over explicit
// state views: each configuration of a chunk has its own slice of the
// structure-of-arrays slabs. The sums are exactly what a walk of the
// events would accumulate one by one, because without cache state no
// outcome depends on access order. The read-column walk reuses the
// write and reduce pieces for framed configurations too (their
// accounting never consults the cache, so it is order-free for every
// configuration class).
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
// configurations as well.
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
