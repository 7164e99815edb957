package refstream

// batch.go — the batch replayer: classify a whole capture group in one
// stream pass. A sweep group shares one captured stream; RunBatchN
// derives each per-page-size view of it (read column, summaries) once
// and classifies every configuration of the group from those views.
// The paper's single-assignment pages make this sound: replay state is
// pure per-configuration arithmetic (owner tables, cache rows,
// counters), so configurations never interact and one decoded access
// can be applied to all of them in any interleaving.
//
// State is structure-of-arrays: per-PE counters, traffic matrices,
// owner tables, reduce tallies and cache rows live in flat slabs
// indexed by configuration (through the peOff/trafOff/ownOff prefix
// tables), grown once and reused, so a steady-state RunBatchN allocates
// nothing beyond the returned Results. Configurations are bucketed by
// page size: within a bucket the global page-id column, the read column
// and the run-length histogram are shared, so each is derived once per
// bucket rather than once per configuration.
//
// The fast paths layer per configuration class:
//
//   - order-free configurations (frameless cache, or one PE) never
//     touch the event columns: fold-eligible ones (NPE=1, or Modulo
//     layout with power-of-two NPE ≤ 64) classify from the memoized
//     64×64 fold table (foldClassify), the rest from the lazily built
//     run-length read histogram (aggregateClassify);
//   - framed configurations classify over the context-resolved read
//     column (the cache is the only order-dependent piece; writes and
//     reductions come from the structural summary), grouped by owner
//     map — (NPE, page size, layout, layout run), which fixes what every
//     PE's private cache sees. In a group, an owner map whose only
//     framed configuration is LRU with at most packCap frames walks the
//     column once on packed SWAR rows — four uint16 frame lanes per
//     uint64 word, recency maintained with shifts and masks
//     (classifyReadsLRUP1/P2) — under any layout and machine width:
//     single assignment never invalidates a fetched page, so a PE's
//     cache depends only on its remote-page string and frame count.
//     Every other owner map is classified in two levels (twolevel.go):
//     one walk builds each PE's remote-page string, one move-to-front
//     walk per PE string prices all its LRU sizes, and FIFO, Clock and
//     Random configurations run policy rows over the strings.
//
// A group walks the stream's memoized read column, shared by its
// framed configurations. A call that classifies exactly one
// configuration (Run, or a RunBatchN whose configurations share one
// representative) builds no column at all: its framed configuration
// goes two-level whatever its policy and size, and level 1 walks the
// stream's event columns directly (peStrings.buildEvents), so the call
// memoizes nothing on the stream beyond the page-id column: see
// readColumn.
//
// Whatever the path, a framed configuration's cache statistics follow
// in closed form from its counters: replay looks up before it inserts
// and inserts only after a miss, so hits are CachedReads, misses and
// inserts RemoteReads, and every insert past the frame count evicts.
//
// Large groups are classified in chunks: Cut splits the configuration
// slab into contiguous slices of bounded estimated cost (path class ×
// stream length), each classified against one Replayer's slabs over the
// shared read-only decoded stream, with results landing at their
// original indices. The same single-assignment argument that makes the
// batch sound makes any split sound: configurations never interact, so
// chunks share nothing mutable and may run on any Replayer in any
// order. Cut keeps a run of framed configurations with one (NPE, page
// size) whole, so an owner map's strings are built once.
// internal/sweep feeds the chunks of every group to one work queue, so
// one group spreads over every sweep worker; RunBatchN runs a group's
// chunks one after another. A group under the cost target is one chunk
// and pays nothing.
//
// Results are bit-identical to direct sim.Run whatever the chunking:
// Run is a chunk of one configuration, so refstream_test.go,
// FuzzBatchVsSingle (which also holds the two level-1 feeders to each
// other) and FuzzSharedOwnerMap (batch against sim.Run),
// TestParallelMatchesSerialBatch and FuzzParallelVsSerialBatch hold the
// equivalence across kernels, owner maps, cuts and Replayers, and
// docs/PERF.md records the measured win.

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Observability names recorded by RunBatchN on Replayer.Metrics.
const (
	// MetricBatchGroups counts capture groups classified by the batch
	// path: one per Cut, however many chunks the group is cut into.
	MetricBatchGroups = "refstream.batch.groups"
	// MetricBatchConfigsPerPass is a histogram of how many
	// configurations each read-column pass classified (obs.DepthBuckets).
	MetricBatchConfigsPerPass = "refstream.batch.configs_per_pass"
	// MetricBatchDecodePasses counts read-column passes (a
	// one-configuration call's event-column walk included): the
	// quantity batching minimizes (one per chunk and page-size bucket
	// with at least one framed configuration, instead of one per
	// configuration).
	MetricBatchDecodePasses = "refstream.batch.decode_passes"
	// MetricBatchPartitions is a histogram of how many chunks each group
	// was cut into (obs.DepthBuckets); 1 means the group was under the
	// cost target and ran as a single pass.
	MetricBatchPartitions = "refstream.batch.partitions"
	// MetricBatchOwnerMaps counts level-1 walks of the two-level path:
	// one per owner map of a chunk, each building every PE's
	// remote-page string once for all the map's configurations.
	MetricBatchOwnerMaps = "refstream.batch.owner_maps"
	// MetricBatchPathPrefix, followed by a path name (fold, hist, swar,
	// stack, policy), counts the configurations served by
	// that classification path, recorded by the chunk classifier that
	// ran it.
	MetricBatchPathPrefix = "refstream.batch.path."
)

// path is the classification path that serves a configuration; the
// package comment above describes each.
type path uint8

const (
	pathFold   path = iota // order-free, from the fold table
	pathHist               // order-free, from the run-length read histogram
	pathSWAR               // framed LRU, alone in its owner map, on packed SWAR rows
	pathStack              // framed LRU, two-level: one stack walk per PE string prices every size
	pathPolicy             // framed FIFO/Clock/Random, two-level: policy rows per PE string
	numPaths
)

// pathMetric names the per-path counters.
var pathMetric = [numPaths]string{
	MetricBatchPathPrefix + "fold", MetricBatchPathPrefix + "hist", MetricBatchPathPrefix + "swar",
	MetricBatchPathPrefix + "stack", MetricBatchPathPrefix + "policy",
}

// pathWeight is the cost of classifying one configuration, per stream
// event, relative to the fold path; mapWeight is the cost of one owner
// map's level-1 walk, charged once per map on top of its stack and
// policy configurations. The fold : hist : swar ratios are the ladder's
// refstream.batch_us_per_config.* rungs (orderfree_pow2 :
// orderfree_other : lru_small_pow2 ≈ 1 : 3 : 13); the two-level weights
// were timed on grid_wide's groups (docs/PERF.md), so a lone LRU map
// above packCap frames is priced as stack plus one map walk. One unit
// is about a third of a nanosecond on the measurement box.
var pathWeight = [numPaths]int64{1, 3, 13, 8, 16}

const mapWeight = 32

// chunkTarget is the estimated cost at which Cut closes a chunk: about
// a third of a millisecond of classification. Scheduling a chunk costs
// about a microsecond, so the target could be far smaller before
// dispatch showed; what sets it is the slabs. A chunk this size keeps
// its owner tables, traffic matrices and cache rows in a core's L2 from
// setup through classification to result assembly; at four times the
// target the grid_wide workload ran a tenth slower at one worker and at
// two (docs/PERF.md).
const chunkTarget = 1 << 20

// cfgClass is what setup derives about one configuration's
// classification: the path, and whether result assembly must treat the
// cache as frameless.
type cfgClass struct {
	path      path
	frameless bool // the configuration's cache holds zero page frames
}

// classOf derives a valid configuration's class from the page count
// under its page size. A framed configuration is classed two-level
// here; in a group, route moves the one of an owner map that is alone,
// LRU and small onto packed rows (soloPath).
func classOf(cfg sim.Config, totalPages int) cfgClass {
	mp := cfg.CacheElems / cfg.PageSize
	c := cfgClass{frameless: mp == 0 || totalPages == 0}
	switch {
	case c.frameless || cfg.NPE == 1:
		// Order-free. The contingency table serves the configuration
		// whenever the folded page key determines the owner (see
		// foldEligible); the rest fall back to the read histogram.
		c.path = pathHist
		if foldEligible(cfg, cfg.NPE) {
			c.path = pathFold
		}
	case cfg.Policy == cache.LRU || mp <= 1: // one frame: every policy evicts the only page
		c.path = pathStack
	default:
		c.path = pathPolicy
	}
	return c
}

// twoLevel reports whether the path is classified by owner map.
func (p path) twoLevel() bool { return p == pathStack || p == pathPolicy }

// soloPath reports whether an owner map's only framed configuration,
// of path p, walks the read column once on packed SWAR rows: an LRU
// cache of at most packCap frames over a page space whose ids fit a
// lane. Otherwise the map stays two-level.
func soloPath(cfg sim.Config, p path, totalPages int) bool {
	return p == pathStack && cfg.CacheElems/cfg.PageSize <= packCap && totalPages < packEmpty
}

// Chunk is a contiguous slice [Lo, Hi) of a capture group's
// configurations, with the estimated cost of classifying it.
type Chunk struct {
	Lo, Hi int
	Cost   int64
}

// Cut splits a capture group into chunks of bounded estimated cost. The
// group is a sequence of units — a maximal run of consecutive framed
// configurations with one (NPE, page size), or any other configuration
// on its own — and Cut prefix-sums their cost, weight × stream length,
// closing a chunk whenever the next unit would take it past
// chunkTarget. So no chunk exceeds the target unless
// it is a single unit, and a run's owner maps are each built once. The
// chunks are contiguous, ascending and cover cfgs exactly once, and
// they are a pure function of (st, cfgs) — never of a worker count — so
// every caller splits a group the same way. Invalid configurations are
// charged the lowest weight; the chunk that holds one fails when it
// runs. Cut records the group and its chunk count on r.Metrics. The
// returned slice is reused by the next Cut on r.
func (r *Replayer) Cut(st *Stream, cfgs []sim.Config) []Chunk {
	target := r.target
	if target == 0 {
		target = chunkTarget
	}
	events := int64(st.events)
	chunks := r.chunks[:0]
	cur := Chunk{}
	var g cutGeom
	for lo := 0; lo < len(cfgs); {
		hi, weight := r.unit(st, cfgs, lo, &g)
		cost := weight * events
		if cur.Hi > cur.Lo && cur.Cost+cost > target {
			chunks = append(chunks, cur)
			cur = Chunk{Lo: lo}
		}
		cur.Hi, cur.Cost = hi, cur.Cost+cost
		lo = hi
	}
	if cur.Hi > cur.Lo {
		chunks = append(chunks, cur)
	}
	r.chunks = chunks
	if r.Metrics != nil {
		r.Metrics.Counter(MetricBatchGroups).Inc()
		r.Metrics.Histogram(MetricBatchPartitions, obs.DepthBuckets).Observe(int64(len(chunks)))
	}
	return chunks
}

// cutGeom memoizes the page count under the last page size Cut classed
// a configuration under.
type cutGeom struct {
	ps, pages int
}

// path is the class of a configuration (pathFold for an invalid one).
func (g *cutGeom) path(st *Stream, cfg sim.Config) path {
	if validateConfig(cfg) != nil {
		return pathFold
	}
	if cfg.PageSize != g.ps {
		g.ps = cfg.PageSize
		g.pages = pageCount(st.ArrayLens, g.ps)
	}
	return classOf(cfg, g.pages).path
}

// unit returns the end of the unit that starts at cfgs[lo] and its
// weight per stream event. A run of two-level configurations is priced
// as runChunk will classify it: per owner map, a lone small LRU
// configuration on packed rows, any other map one level-1 walk plus its
// members' level-2 weights.
func (r *Replayer) unit(st *Stream, cfgs []sim.Config, lo int, g *cutGeom) (hi int, weight int64) {
	p := g.path(st, cfgs[lo])
	if !p.twoLevel() {
		return lo + 1, pathWeight[p]
	}
	npe, ps := cfgs[lo].NPE, cfgs[lo].PageSize
	maps := r.cutMaps[:0]
	for hi = lo; hi < len(cfgs); hi++ {
		c := cfgs[hi]
		if c.NPE != npe || c.PageSize != ps {
			break
		}
		p := g.path(st, c)
		if !p.twoLevel() {
			break
		}
		weight += pathWeight[p]
		k := mapKey{npe, ps, c.Layout, c.LayoutRun}
		j := len(maps) - 1
		for ; j >= 0 && maps[j].key != k; j-- {
		}
		if j < 0 {
			weight += mapWeight
			maps = append(maps, cutMap{key: k, first: c, p: p})
			j = len(maps) - 1
		}
		maps[j].n++
	}
	for _, m := range maps {
		if m.n != 1 {
			continue
		}
		if soloPath(m.first, m.p, pageCount(st.ArrayLens, ps)) {
			weight += pathWeight[pathSWAR] - pathWeight[m.p] - mapWeight
		}
	}
	r.cutMaps = maps
	return hi, weight
}

// cutMap tallies one owner map of a unit: its first configuration and
// that one's path, and the member count.
type cutMap struct {
	key   mapKey
	first sim.Config
	p     path
	n     int
}

// BatchError attributes a RunBatchN failure to the configuration that
// caused it: Index is the position in the cfgs slice handed to
// RunBatchN. Configurations are validated and set up in input order, so
// Index is always the lowest failing position — callers mapping batch
// positions back to grid indices keep the sweep engine's lowest-index
// error contract.
type BatchError struct {
	Index int
	Err   error
}

func (e *BatchError) Error() string { return fmt.Sprintf("config %d: %v", e.Index, e.Err) }
func (e *BatchError) Unwrap() error { return e.Err }

// batchState is RunBatchN's reusable scratch: flat structure-of-arrays
// slabs indexed by configuration (directly, or per (configuration, PE)
// through the peOff prefix table). Everything grows on first use and is
// reused across calls.
type batchState struct {
	// Per-configuration geometry and classification class.
	npe      []int
	class    []cfgClass
	maxPages []int // page frames (CacheElems/PageSize)

	// Packed recency rows, for an owner map's lone LRU configuration of
	// at most packCap frames over a page space that fits 16-bit tags: a
	// recency-ordered row of maxPages gids per (configuration, PE),
	// packed four uint16 lanes per word (lane 0 = most recent, 0xFFFF =
	// empty), so lookup is a SWAR compare and replacement a pair of word
	// shifts — exactly cache.Cache's LRU decisions.
	pframes []uint64

	// Prefix tables into the flat slabs, all len(cfgs)+1.
	peOff   []int // sums of NPE: per-(configuration, PE) slab offsets
	trafOff []int // sums of NPE²: traffic-slab offsets
	ownOff  []int // sums of the page count under the configuration's page size
	pfOff   []int // sums of NPE×words-per-row over packed configurations

	// Flat per-(configuration, PE) state.
	perPE    stats.PerPE
	particip []bool // reduction participation marks

	// Flat per-configuration slabs.
	traf   []int64 // npe×npe traffic matrices, row-major
	owners []int32 // owner tables under the configuration's page size

	// Per-configuration reduce tallies.
	reduceS []int64
	reduceB []int64

	// The chunk's owner maps (two-level configurations grouped by
	// mapKey), each configuration's map (-1 for none) and the maps'
	// member lists.
	maps   []ownerMap
	mapOf  []int
	mapCfg []int

	pageBase []int32 // appendPageTable scratch
	psList   []int   // distinct page sizes, first-appearance order
	framed   []int   // framed configurations of the current bucket
}

// packCap bounds the packed rows (two words of four 16-bit lanes):
// wider caches take the two-level stack walk. packEmpty is the
// empty-lane sentinel, so packing requires every page id to stay below
// it. laneOnes/laneHighs are the SWAR constants for the per-lane
// equality test.
const (
	packCap   = 8
	lanes     = 4
	packEmpty = 0xFFFF
	laneOnes  = 0x0001000100010001
	laneHighs = 0x8000800080008000
)

// RunBatchN classifies the stream under every configuration of a
// capture group and returns the Results in cfgs order. Each Result is
// bit-identical to Run(st, cfgs[i]) — and therefore to a direct
// sim.Run of the same point. On failure the returned error is a
// *BatchError whose Index is the lowest failing position in cfgs.
// Beyond the Results themselves, a steady-state call allocates nothing.
//
// The group is Cut into chunks, classified one after another on the
// calling goroutine against r's slabs. workers is ignored: a caller
// that wants one group spread over cores cuts it with Cut and runs the
// chunks on one Replayer per worker with RunChunk, as internal/sweep
// does.
//
// Only one representative of each set of count-identical
// configurations (sim.Config.Representative) is cut and classified:
// the first configuration of the set takes its Result, and every later
// one a shallow copy stamped with its own configuration that shares
// the representative's slices (sim.Result is write-once).
func (r *Replayer) RunBatchN(st *Stream, cfgs []sim.Config, workers int) ([]*sim.Result, error) {
	reps := r.distinct(cfgs)
	out := grown(r.repOut, len(reps))
	r.repOut = out
	defer clear(out)
	for _, c := range r.Cut(st, reps) {
		// A group of one representative is one chunk, classified like
		// Run, without a read column.
		if err := r.runChunk(st, reps[c.Lo:c.Hi], out[c.Lo:c.Hi], len(reps) == 1); err != nil {
			// Chunks are ascending and representatives are in order of
			// first occurrence, so the first failing chunk's lowest
			// failing representative's first member is the lowest
			// failing position in cfgs.
			be := err.(*BatchError) // runChunk blames every failure on a position
			return nil, &BatchError{Index: slices.Index(r.repOf, c.Lo+be.Index), Err: be.Err}
		}
	}
	results := make([]*sim.Result, len(cfgs))
	next := 0 // representatives are numbered in order of first occurrence
	for i, j := range r.repOf {
		res := out[j]
		if j == next {
			next++
			res.Config = cfgs[i]
		} else {
			c := *res // a later member: the first took res itself
			c.Config = cfgs[i]
			res = &c
		}
		results[i] = res
	}
	return results, nil
}

// distinct maps cfgs onto their representatives: it returns the
// distinct ones in order of first occurrence and leaves in r.repOf the
// position of each configuration's representative.
func (r *Replayer) distinct(cfgs []sim.Config) []sim.Config {
	if r.repIdx == nil {
		r.repIdx = make(map[sim.Config]int)
	}
	clear(r.repIdx)
	reps, of := r.reps[:0], r.repOf[:0]
	for _, c := range cfgs {
		rep := c.Representative()
		j, ok := r.repIdx[rep]
		if !ok {
			j = len(reps)
			r.repIdx[rep] = j
			reps = append(reps, rep)
		}
		of = append(of, j)
	}
	r.reps, r.repOf = reps, of
	return reps
}

// RunChunk classifies one chunk of a capture group — cfgs is the
// chunk's slice of the group, results the matching slice of the
// group's output — against r's own slabs. It is what a caller that
// schedules chunks itself (internal/sweep's work queue) runs per chunk
// after Cut; a returned *BatchError carries the chunk-local index. A
// chunk is part of a group, so its framed configurations walk the
// stream's memoized read column even when the chunk holds only one.
func (r *Replayer) RunChunk(st *Stream, cfgs []sim.Config, results []*sim.Result) error {
	return r.runChunk(st, cfgs, results, false)
}

// runChunk classifies one chunk of a capture group into results
// (len(results) == len(cfgs)): the whole batch algorithm, against r's
// own slabs. Every error it returns is a *BatchError carrying the
// chunk-local index. single marks a call that classifies exactly one
// configuration: its framed configuration is priced two-level from
// strings built off the event columns, so it builds no read column (see
// readColumn). The path each configuration took
// and each read-column pass are recorded on r.Metrics (nil disables;
// obs instruments are race-safe, so Replayers sharing a registry record
// directly).
func (r *Replayer) runChunk(st *Stream, cfgs []sim.Config, results []*sim.Result, single bool) error {
	b := &r.bat
	reg := r.Metrics
	n := len(cfgs)

	// Size and zero the slabs. Invalid geometry contributes nothing
	// here; the setup pass below rejects it, in input order. The row
	// slabs are sized by route, once the paths are known.
	b.npe = grown(b.npe, n)
	b.class = grown(b.class, n)
	b.reduceS = grown(b.reduceS, n)
	b.reduceB = grown(b.reduceB, n)
	b.maxPages = grown(b.maxPages, n)
	b.peOff = grown(b.peOff, n+1)
	b.trafOff = grown(b.trafOff, n+1)
	b.ownOff = grown(b.ownOff, n+1)
	pe, tr, ow := 0, 0, 0
	for i, cfg := range cfgs {
		b.peOff[i], b.trafOff[i], b.ownOff[i] = pe, tr, ow
		if cfg.NPE > 0 && cfg.PageSize > 0 {
			pe += cfg.NPE
			tr += cfg.NPE * cfg.NPE
			ow += pageCount(st.ArrayLens, cfg.PageSize)
		}
	}
	b.peOff[n], b.trafOff[n], b.ownOff[n] = pe, tr, ow
	b.perPE = grown(b.perPE, pe)
	b.particip = grown(b.particip, pe)
	b.traf = grown(b.traf, tr)
	b.owners = grown(b.owners, ow)

	// Per-configuration machine setup, strictly in input order so the
	// first error is the lowest-index one: validation, class and owner
	// tables.
	for i := range cfgs {
		if err := r.setupBatchConfig(st, i, cfgs[i]); err != nil {
			return &BatchError{Index: i, Err: err}
		}
	}
	r.route(cfgs, single)
	var served [numPaths]int64
	for i := range cfgs {
		served[b.class[i].path]++
	}
	for p, n := range served {
		if n > 0 {
			reg.Counter(pathMetric[p]).Add(n)
		}
	}

	// Classification, bucketed by page size: the read column, the
	// summaries and the run-length histogram are per page size, so
	// sharing a bucket means computing them once for every configuration
	// in it.
	b.psList = b.psList[:0]
	for _, cfg := range cfgs {
		if !slices.Contains(b.psList, cfg.PageSize) {
			b.psList = append(b.psList, cfg.PageSize)
		}
	}
	for _, ps := range b.psList {
		agg := st.frameAgg(ps)
		b.framed = b.framed[:0]
		for i, cfg := range cfgs {
			if cfg.PageSize != ps {
				continue
			}
			if b.class[i].path >= pathSWAR {
				b.framed = append(b.framed, i)
				continue
			}
			npe := b.npe[i]
			if b.class[i].path == pathFold {
				foldClassify(st.foldTable(ps), npe,
					b.perPE[b.peOff[i]:b.peOff[i+1]],
					b.traf[b.trafOff[i]:b.trafOff[i+1]])
				b.reduceS[i], b.reduceB[i] = aggregateReduces(agg, npe,
					b.owners[b.ownOff[i]:b.ownOff[i+1]],
					b.traf[b.trafOff[i]:b.trafOff[i+1]],
					b.particip[b.peOff[i]:b.peOff[i+1]])
				continue
			}
			b.reduceS[i], b.reduceB[i] = aggregateClassify(agg, st.readsHist(ps), npe,
				b.owners[b.ownOff[i]:b.ownOff[i+1]],
				b.perPE[b.peOff[i]:b.peOff[i+1]],
				b.traf[b.trafOff[i]:b.trafOff[i+1]],
				b.particip[b.peOff[i]:b.peOff[i+1]])
		}
		if len(b.framed) == 0 {
			continue
		}
		reg.Counter(MetricBatchDecodePasses).Inc()
		reg.Histogram(MetricBatchConfigsPerPass, obs.DepthBuckets).Observe(int64(len(b.framed)))
		// Over the context-resolved read column: the cache part is the
		// only order-dependent piece; writes and reductions come from the
		// shared summary. A one-configuration call has no packed-row
		// configuration and feeds level 1 from the event columns instead.
		var col []readRec
		if !single {
			col = st.readColumn(ps)
		}
		for _, i := range b.framed {
			npe := b.npe[i]
			lo := b.peOff[i]
			owners := b.owners[b.ownOff[i]:b.ownOff[i+1]]
			perPE := b.perPE[lo : lo+npe]
			traf := b.traf[b.trafOff[i]:b.trafOff[i+1]]
			switch b.class[i].path {
			case pathSWAR:
				rows := b.pframes[b.pfOff[i]:b.pfOff[i+1]]
				if b.maxPages[i] <= lanes {
					classifyReadsLRUP1(col, npe, b.maxPages[i], owners, rows, perPE, traf)
				} else {
					classifyReadsLRUP2(col, npe, b.maxPages[i], owners, rows, perPE, traf)
				}
			default:
				continue // two-level: by owner map, below
			}
			aggregateWrites(agg, owners, perPE)
			b.reduceS[i], b.reduceB[i] = aggregateReduces(agg, npe, owners, traf,
				b.particip[lo:lo+npe])
		}
		for _, m := range b.maps {
			if m.key.pageSize == ps && m.hi > m.lo {
				first := b.mapCfg[m.lo]
				owners := b.owners[b.ownOff[first]:b.ownOff[first+1]] // every member's table is this one
				reg.Counter(MetricBatchOwnerMaps).Inc()
				if single {
					r.two.buildEvents(st.dheads, st.gidColumn(ps), m.key.npe, owners)
				} else {
					r.two.build(col, m.key.npe, owners)
				}
				r.classifyMap(cfgs, agg, m, owners)
			}
		}
	}
	// Result assembly: fresh counter and traffic copies, shared
	// (immutable) checksums, and closed-form cache stats (see the
	// package comment).
	for i := range cfgs {
		npe := b.npe[i]
		peBase := b.peOff[i]
		perPE := b.perPE[peBase : peBase+npe]
		res := &sim.Result{
			Kernel: st.Kernel.Key, N: st.N, Config: cfgs[i],
			PerPE:        append(stats.PerPE(nil), perPE...),
			ReduceSends:  b.reduceS[i],
			ReduceBcasts: b.reduceB[i],
			Checksums:    st.Checksums,
		}
		res.Totals = res.PerPE.Totals()
		res.Traffic = sim.TrafficMatrix(b.traf[b.trafOff[i]:b.trafOff[i+1]], npe)
		res.Cache = make([]cache.Stats, npe)
		frames := int64(b.maxPages[i])
		for p := 0; p < npe; p++ {
			remote := perPE[p].RemoteReads
			if b.class[i].frameless {
				res.Cache[p] = cache.Stats{Misses: remote}
				continue
			}
			res.Cache[p] = cache.Stats{
				Hits:      perPE[p].CachedReads,
				Misses:    remote,
				Inserts:   remote,
				Evictions: remote - min(frames, remote),
			}
		}
		results[i] = res
	}
	return nil
}

// setupBatchConfig validates cfgs[i] and derives its machine properties
// into the batch slabs: its class and the owner table under its page
// size and layout. No path classifies with cache.Cache, so the cache
// parameters are only validated.
func (r *Replayer) setupBatchConfig(st *Stream, i int, cfg sim.Config) error {
	if err := validateConfig(cfg); err != nil {
		return err
	}
	b := &r.bat
	npe := cfg.NPE
	b.npe[i] = npe
	var totalPages int
	b.pageBase, totalPages = appendPageTable(b.pageBase, st.ArrayLens, cfg.PageSize)
	owners := b.owners[b.ownOff[i]:b.ownOff[i+1]]
	for a, elems := range st.ArrayLens {
		pages := (elems + cfg.PageSize - 1) / cfg.PageSize
		l, err := r.layout(cfg.Layout, npe, pages, cfg.LayoutRun)
		if err != nil {
			return fmt.Errorf("refstream: %s: %w", st.Kernel.Key, err)
		}
		base := b.pageBase[a]
		for p := 0; p < pages; p++ {
			owners[base+int32(p)] = int32(l.Owner(p))
		}
	}
	b.maxPages[i] = cfg.CacheElems / cfg.PageSize
	b.class[i] = classOf(cfg, totalPages)
	if err := cache.Validate(cfg.CacheElems, cfg.PageSize, cfg.Policy); err != nil {
		return fmt.Errorf("refstream: %s: %w", st.Kernel.Key, err)
	}
	return nil
}

// route groups the chunk's two-level configurations into owner maps,
// moves the lone small LRU configuration of a map onto packed rows
// (soloPath) unless the chunk is a one-configuration call, whose level
// 1 walks the event columns instead of a read column, and sizes and
// resets those rows.
func (r *Replayer) route(cfgs []sim.Config, single bool) {
	b := &r.bat
	n := len(cfgs)
	b.maps = b.maps[:0]
	b.mapOf = grown(b.mapOf, n)
	for i, cfg := range cfgs {
		b.mapOf[i] = -1
		if !b.class[i].path.twoLevel() {
			continue
		}
		k := mapKey{cfg.NPE, cfg.PageSize, cfg.Layout, cfg.LayoutRun}
		j := len(b.maps) - 1
		for ; j >= 0 && b.maps[j].key != k; j-- {
		}
		if j < 0 {
			// Until the member lists are laid out, lo holds the map's
			// first member and hi its member count.
			b.maps = append(b.maps, ownerMap{key: k, lo: i})
			j = len(b.maps) - 1
		}
		b.maps[j].hi++
		b.mapOf[i] = j
	}
	for j := range b.maps {
		if single || b.maps[j].hi != 1 {
			continue
		}
		i := b.maps[j].lo
		if soloPath(cfgs[i], b.class[i].path, b.ownOff[i+1]-b.ownOff[i]) {
			b.class[i].path = pathSWAR
			b.mapOf[i] = -1
			b.maps[j].hi = 0
		}
	}
	at := 0
	for j := range b.maps {
		m := &b.maps[j]
		m.lo, m.hi, at = at, at, at+m.hi
	}
	b.mapCfg = grown(b.mapCfg, at)
	for i, j := range b.mapOf {
		if j >= 0 {
			b.mapCfg[b.maps[j].hi] = i
			b.maps[j].hi++
		}
	}

	b.pfOff = grown(b.pfOff, n+1)
	pf := 0
	for i := range cfgs {
		b.pfOff[i] = pf
		if b.class[i].path == pathSWAR {
			pf += b.npe[i] * ((b.maxPages[i] + lanes - 1) / lanes)
		}
	}
	b.pfOff[n] = pf
	b.pframes = grown(b.pframes, pf)
	for j := range b.pframes {
		b.pframes[j] = ^uint64(0) // every lane empty
	}
}

// foldClassify charges reads, control reads and writes from the
// stream's contingency table: the owner of every folded page key is
// key & (npe-1), so the whole classification is a fixed foldSize² walk
// regardless of stream length. Exact for order-free configurations
// whose owner function the fold preserves (see batchState.fold).
func foldClassify(t *foldTable, npe int, perPE stats.PerPE, traf []int64) {
	m := npe - 1
	for ck := 0; ck < foldSize; ck++ {
		p := ck & m
		row := t.reads[ck<<foldBits : ck<<foldBits+foldSize]
		for gk, cnt := range row {
			if cnt == 0 {
				continue
			}
			q := gk & m
			if p == q {
				perPE[p].LocalReads += cnt
			} else {
				perPE[p].RemoteReads += cnt
				traf[p*npe+q] += cnt
				traf[q*npe+p] += cnt
			}
		}
	}
	for gk, cnt := range t.ctrl {
		if cnt == 0 {
			continue
		}
		q := gk & m
		perPE[q].LocalReads += cnt
		for pe := 0; pe < npe; pe++ {
			if pe == q {
				continue
			}
			perPE[pe].RemoteReads += cnt
			traf[pe*npe+q] += cnt
			traf[q*npe+pe] += cnt
		}
	}
	for gk, cnt := range t.wr {
		if cnt != 0 {
			perPE[gk&m].Writes += cnt
		}
	}
}

// classifyReadsLRUP1 walks the context-resolved read column for an
// owner map's lone LRU configuration on packed single-word rows (at
// most four frames): the row scan is one SWAR halfword compare and
// recency maintenance a pair of shifts, all inlined into the walk. A
// run of c reads of one page is one lookup: after it the page is the
// row's front, so the remaining c−1 are hits. The front-lane check
// doubles as the guaranteed-hit short circuit.
func classifyReadsLRUP1(col []readRec, npe, mp int, owners []int32, rows []uint64, perPE stats.PerPE, traf []int64) {
	keep := uint64(1)<<(16*uint(mp)) - 1 // mp=4 shifts past the word: keep = ^0
	lastCtx, cur := int32(-2), -1        // -2: no owner lookup cached yet
	for _, rc := range col {
		if rc.ctx != lastCtx {
			lastCtx = rc.ctx
			if lastCtx >= 0 {
				cur = int(owners[lastCtx])
			} else {
				cur = -1
			}
		}
		g := uint64(uint32(rc.gid))
		owner := int(owners[rc.gid])
		c := int64(rc.count)
		if cur >= 0 {
			if owner == cur {
				perPE[cur].LocalReads += c
				continue
			}
			w := rows[cur]
			if w&packEmpty == g { // front lane: the guaranteed-hit short circuit
				perPE[cur].CachedReads += c
				continue
			}
			x := w ^ (g * laneOnes)
			if d := (x - laneOnes) & ^x & laneHighs; d != 0 {
				s := uint(bits.TrailingZeros64(d)) &^ 15
				rows[cur] = w&^(uint64(1)<<(s+16)-1) | (w&(uint64(1)<<s-1))<<16 | g
				perPE[cur].CachedReads += c
			} else {
				rows[cur] = ((w<<16 | g) & keep) | ^keep
				perPE[cur].RemoteReads++
				perPE[cur].CachedReads += c - 1 // the rest of the run re-hits the new front
				traf[cur*npe+owner]++           // page request
				traf[owner*npe+cur]++           // page reply
			}
			continue
		}
		for pe := 0; pe < npe; pe++ { // control read: every PE executes it
			if pe == owner {
				perPE[pe].LocalReads += c
				continue
			}
			w := rows[pe]
			if w&packEmpty == g {
				perPE[pe].CachedReads += c
				continue
			}
			x := w ^ (g * laneOnes)
			if d := (x - laneOnes) & ^x & laneHighs; d != 0 {
				s := uint(bits.TrailingZeros64(d)) &^ 15
				rows[pe] = w&^(uint64(1)<<(s+16)-1) | (w&(uint64(1)<<s-1))<<16 | g
				perPE[pe].CachedReads += c
			} else {
				rows[pe] = ((w<<16 | g) & keep) | ^keep
				perPE[pe].RemoteReads++
				perPE[pe].CachedReads += c - 1
				traf[pe*npe+owner]++
				traf[owner*npe+pe]++
			}
		}
	}
}

// classifyReadsLRUP2 extends the packed walk to two-word rows (five to
// eight frames). Recency runs lane 0 of word 0 (most recent) through
// lane 3 of word 1: a hit in word 1 extracts the lane, slides word 0 up
// with its last lane spilling into word 1's front, and a miss shifts
// both words with word 1's tail falling off.
func classifyReadsLRUP2(col []readRec, npe, mp int, owners []int32, rows []uint64, perPE stats.PerPE, traf []int64) {
	keep1 := uint64(1)<<(16*uint(mp-lanes)) - 1 // mp=8: keep = ^0
	lastCtx, cur := int32(-2), -1
	for _, rc := range col {
		if rc.ctx != lastCtx {
			lastCtx = rc.ctx
			if lastCtx >= 0 {
				cur = int(owners[lastCtx])
			} else {
				cur = -1
			}
		}
		g := uint64(uint32(rc.gid))
		owner := int(owners[rc.gid])
		c := int64(rc.count)
		if cur >= 0 {
			if owner == cur {
				perPE[cur].LocalReads += c
				continue
			}
			j := cur * 2
			w0 := rows[j]
			if w0&packEmpty == g {
				perPE[cur].CachedReads += c
				continue
			}
			x := w0 ^ (g * laneOnes)
			if d := (x - laneOnes) & ^x & laneHighs; d != 0 {
				s := uint(bits.TrailingZeros64(d)) &^ 15
				rows[j] = w0&^(uint64(1)<<(s+16)-1) | (w0&(uint64(1)<<s-1))<<16 | g
				perPE[cur].CachedReads += c
				continue
			}
			w1 := rows[j+1]
			x = w1 ^ (g * laneOnes)
			if d := (x - laneOnes) & ^x & laneHighs; d != 0 {
				s := uint(bits.TrailingZeros64(d)) &^ 15
				rows[j+1] = w1&^(uint64(1)<<(s+16)-1) | (w1&(uint64(1)<<s-1))<<16 | w0>>48
				rows[j] = w0<<16 | g
				perPE[cur].CachedReads += c
			} else {
				rows[j] = w0<<16 | g
				rows[j+1] = ((w1<<16 | w0>>48) & keep1) | ^keep1
				perPE[cur].RemoteReads++
				perPE[cur].CachedReads += c - 1
				traf[cur*npe+owner]++
				traf[owner*npe+cur]++
			}
			continue
		}
		for pe := 0; pe < npe; pe++ {
			if pe == owner {
				perPE[pe].LocalReads += c
				continue
			}
			j := pe * 2
			w0 := rows[j]
			if w0&packEmpty == g {
				perPE[pe].CachedReads += c
				continue
			}
			x := w0 ^ (g * laneOnes)
			if d := (x - laneOnes) & ^x & laneHighs; d != 0 {
				s := uint(bits.TrailingZeros64(d)) &^ 15
				rows[j] = w0&^(uint64(1)<<(s+16)-1) | (w0&(uint64(1)<<s-1))<<16 | g
				perPE[pe].CachedReads += c
				continue
			}
			w1 := rows[j+1]
			x = w1 ^ (g * laneOnes)
			if d := (x - laneOnes) & ^x & laneHighs; d != 0 {
				s := uint(bits.TrailingZeros64(d)) &^ 15
				rows[j+1] = w1&^(uint64(1)<<(s+16)-1) | (w1&(uint64(1)<<s-1))<<16 | w0>>48
				rows[j] = w0<<16 | g
				perPE[pe].CachedReads += c
			} else {
				rows[j] = w0<<16 | g
				rows[j+1] = ((w1<<16 | w0>>48) & keep1) | ^keep1
				perPE[pe].RemoteReads++
				perPE[pe].CachedReads += c - 1
				traf[pe*npe+owner]++
				traf[owner*npe+pe]++
			}
		}
	}
}
