// Package refstream implements the execute-once / classify-many sweep
// compiler: the paper's whole evaluation (§6–§7) is a grid of machine
// configurations run against the same programs, yet the classified
// reference stream — which array element is touched, in what program
// order, and in which structural context (assignment right-hand side,
// reduction term, replicated control read) — depends only on the
// (kernel, problem size) pair. Everything the grid varies (PE count,
// page size, cache capacity, replacement policy, layout) only changes
// how each access is *classified*, not which accesses occur.
//
// This package therefore splits a simulated run into two phases:
//
//   - Capture executes the kernel once, on internal/sim's recording
//     engine (so single assignment is validated and the output
//     checksums are computed exactly once, at the cost of one execution
//     and no machine model), and keeps the program property: a columnar
//     encoding of the reference stream with its structural markers.
//   - Replayer applies the machine property: it re-derives every
//     counter of a sim.Result — per-PE access classes, cache
//     statistics, the traffic matrix, reduction sends/broadcasts —
//     for any eligible configuration by streaming the captured events
//     through owner tables and cache rows, with no floating-point
//     math, no defined-bit bookkeeping, and no steady-state
//     allocations beyond the Result itself.
//
// Replayer.RunBatchN (batch.go) classifies a whole capture group —
// every configuration sharing the stream — in one pass, holding all
// replay state in flat structure-of-arrays slabs indexed by
// configuration and bucketing configurations by page size so page-id
// derivation and the memoized stream summaries are computed once per
// bucket; Replayer.Run is the same engine on a group of one.
// internal/sweep cuts each group into chunks (Replayer.Cut) that its
// workers classify side by side (Replayer.RunChunk), and internal/serve
// runs one RunBatchN per group for /v1/classify and /v1/sweep.
//
// Replay results — single and batch — are bit-identical to a direct
// sim.Run of the same point; internal/sweep uses that equivalence to
// execute each (kernel, N) pair once per sweep and classify every grid
// point against the shared stream. See docs/PERF.md for the design and
// the measured win, and Eligible for the two configurations that still
// require direct execution.
//
// A Stream holds its events as two fixed-width columns, the form the
// recording engine writes and every replay path reads: per event, the
// array ID and opcode packed in one uint32 and the element index in one
// int32. Streams are shared read-only across sweep workers. The wire
// form the capture store persists (marshal.go) is a compressed pair of
// byte columns derived from these on demand and never kept.
package refstream

import (
	"sync"
	"sync/atomic"

	"repro/internal/loops"
	"repro/internal/sim"
)

// Opcodes of the reference stream, as the recording engine writes them
// (see the sim.Op* constants for the state machine they drive).
const (
	opRead      = sim.OpRead
	opAssign    = sim.OpAssign
	opEnd       = sim.OpEnd
	opTerm      = sim.OpTerm
	opEndReduce = sim.OpEndReduce
)

// opHasLin reports whether the opcode carries an element-index payload
// in the lins column.
func opHasLin(op byte) bool {
	return op == opRead || op == opAssign || op == opTerm
}

// Stream is the captured reference stream of one (kernel, N) pair: the
// program property of a sweep, independent of every machine parameter.
// A Stream is immutable after Capture and safe to share read-only
// across concurrent Replayers.
type Stream struct {
	Kernel *loops.Kernel // the captured kernel
	N      int           // clamped problem size the stream was captured at

	// ArrayLens holds each array's element count, indexed by the array
	// ID assigned at bind time; replay derives page geometry and owner
	// tables from these under the target configuration.
	ArrayLens []int

	// Checksums memoizes the validation run's output checksums. They
	// are a pure function of (kernel, N) — partitioning never changes a
	// computed value — so every replayed Result shares this slice.
	Checksums []loops.ArraySum

	events int
	dheads []uint32 // per event: arrayID<<3 | opcode
	dlins  []int32  // per event: absolute element index (0 when the opcode has none)

	// Replay-side memos, built lazily on first use and shared by every
	// Replayer of this stream (a group replays one stream dozens of
	// times, so each view pays for itself after the first replay). Each
	// view is built single-flight per page size (memo), which keeps the
	// Stream safe for concurrent replays.
	gidCols  memo[[]int32]    // page size → per-event global page id
	aggCols  memo[*frameAgg]  // page size → structural summary (writes, reduces, read totals)
	histCols memo[*readsHist] // page size → run-length read histogram
	readCols memo[[]readRec]  // page size → context-resolved read column
	foldTabs memo[*foldTable] // page size → folded access contingency table
}

// memo is a lazily built per-page-size view of a Stream. Builds are
// single-flight: chunks of one group start together on several workers
// and all want the same view, so the first caller builds it and the
// rest wait for that build instead of racing their own and discarding
// the losers.
type memo[T any] struct {
	mu     sync.RWMutex
	byPS   map[int]*memoEntry[T]
	builds atomic.Int64 // build executions; one per page size ever asked for
}

type memoEntry[T any] struct {
	once sync.Once
	done atomic.Bool // v is built; lets get skip the Once on the hot path
	v    T
}

// get returns s's view under pageSize, running build if this is the
// first request for it. build is a method expression, not a closure:
// get sits under every configuration's setup and must not allocate.
func (m *memo[T]) get(s *Stream, pageSize int, build func(*Stream, int) T) T {
	m.mu.RLock()
	e := m.byPS[pageSize]
	m.mu.RUnlock()
	if e == nil || !e.done.Load() {
		e = m.slow(s, pageSize, build)
	}
	return e.v
}

func (m *memo[T]) slow(s *Stream, pageSize int, build func(*Stream, int) T) *memoEntry[T] {
	m.mu.Lock()
	e := m.byPS[pageSize]
	if e == nil {
		if m.byPS == nil {
			m.byPS = make(map[int]*memoEntry[T])
		}
		e = &memoEntry[T]{}
		m.byPS[pageSize] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		m.builds.Add(1)
		e.v = build(s, pageSize)
		e.done.Store(true)
	})
	return e
}

// Events returns the number of captured events.
func (s *Stream) Events() int { return s.events }

// EncodedBytes returns the byte length of the stream's compressed
// event columns, the bulk of its wire form (marshal.go). It computes
// the length without building or keeping the columns.
func (s *Stream) EncodedBytes() int {
	heads, lins := columnSizes(s.dheads, s.dlins, len(s.ArrayLens))
	return heads + lins
}

// zigzag maps a signed delta to the unsigned varint space.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendPageTable writes each array's base page id into dst (reusing
// its capacity) and returns the table plus the total page count under
// the given page size. This is the single definition of the global
// page-id space; gidColumn and the Replayer's owner table both use it,
// which is what makes their gids line up.
func appendPageTable(dst []int32, lens []int, pageSize int) ([]int32, int) {
	dst = dst[:0]
	total := 0
	for _, elems := range lens {
		dst = append(dst, int32(total))
		total += (elems + pageSize - 1) / pageSize
	}
	return dst, total
}

// pageCount returns the size of that page-id space.
func pageCount(lens []int, pageSize int) int {
	total := 0
	for _, elems := range lens {
		total += (elems + pageSize - 1) / pageSize
	}
	return total
}

// gidColumn returns the per-event global page id of the event's element
// under the given page size (zero for opcodes without a payload),
// memoized per page size. Hoisting the page arithmetic out of the
// replay loop turns per-event work into two table lookups.
func (s *Stream) gidColumn(pageSize int) []int32 {
	return s.gidCols.get(s, pageSize, (*Stream).buildGidColumn)
}

func (s *Stream) buildGidColumn(pageSize int) []int32 {
	heads, lins := s.dheads, s.dlins
	bases, _ := appendPageTable(nil, s.ArrayLens, pageSize)
	col := make([]int32, len(heads))
	ps := int32(pageSize)
	for i, h := range heads {
		if opHasLin(byte(h & 7)) {
			col[i] = bases[h>>3] + lins[i]/ps
		}
	}
	return col
}

// aggRun is one run of identical consecutive accesses in a frameAgg:
// count events reading page gid in context ctx (the page whose owner
// classifies the read; -1 for replicated control reads).
type aggRun struct {
	ctx   int32
	gid   int32
	count int64
}

// reduceRun is a run of count consecutive reductions with identical
// shape: driven by array (host = array % NPE), with terms covering
// exactly the contiguous global pages [gidLo, gidHi). gidHi == gidLo
// encodes a reduction that executed zero terms.
type reduceRun struct {
	array        int32
	gidLo, gidHi int32
	count        int64
}

// frameAgg is the structural summary of a stream under one page size:
// the write and reduction run-length histograms plus raw read counts.
// Writes and reductions never consult the cache, so these runs are
// exact for every configuration class; the read side is deliberately
// just two totals, because the two views that classify reads — the
// fold table for the common order-free shapes, the read histogram for
// the rest — are memoized separately and built only when a
// configuration actually needs them. Keeping reads out of this builder
// makes it a cheap single dispatch per event. Each reduction run's page
// range is exact because a reduction's terms are consecutive elements
// of one driver array: the recording engine emits them so, and
// UnmarshalStream rejects any stream whose terms are not.
type frameAgg struct {
	assigns    []aggRun // assignment openings per target page (ctx unused)
	reduces    []reduceRun
	readsTotal int64 // context reads (an assignment or term page is open)
	ctrlTotal  int64 // replicated control reads
}

// frameAgg returns the stream's structural summary under the given
// page size, memoized alongside the gid columns.
func (s *Stream) frameAgg(pageSize int) *frameAgg {
	return s.aggCols.get(s, pageSize, (*Stream).buildFrameAgg)
}

func (s *Stream) buildFrameAgg(pageSize int) *frameAgg {
	heads := s.dheads
	gids := s.gidColumn(pageSize)
	a := &frameAgg{}
	inCtx := false // an assignment or term page is open
	var rLo, rHi int32
	inTerms := false
	for i, h := range heads {
		switch h & 7 {
		case opRead:
			// The dominant opcode: a bare count, no gid load. Which page
			// was read only matters to the lazily built read views.
			if inCtx {
				a.readsTotal++
			} else {
				a.ctrlTotal++
			}
		case opAssign:
			g := gids[i]
			inCtx = true
			if n := len(a.assigns); n > 0 && a.assigns[n-1].gid == g {
				a.assigns[n-1].count++
			} else {
				a.assigns = append(a.assigns, aggRun{ctx: -1, gid: g, count: 1})
			}
		case opEnd:
			inCtx = false
		case opTerm:
			g := gids[i]
			inCtx = true
			switch {
			case !inTerms:
				inTerms, rLo, rHi = true, g, g+1
			case g == rHi:
				rHi = g + 1
			}
		case opEndReduce:
			inCtx = false
			rr := reduceRun{array: int32(h >> 3), count: 1}
			if inTerms {
				rr.gidLo, rr.gidHi = rLo, rHi
			}
			inTerms = false
			if n := len(a.reduces); n > 0 &&
				a.reduces[n-1].array == rr.array &&
				a.reduces[n-1].gidLo == rr.gidLo &&
				a.reduces[n-1].gidHi == rr.gidHi {
				a.reduces[n-1].count++
			} else {
				a.reduces = append(a.reduces, rr)
			}
		}
	}
	return a
}

// readsHist is the run-length read histogram of a stream under one
// page size. When a configuration's classification is order-free —
// a frameless cache misses every lookup, and a 1-PE machine makes
// every access local — per-PE counters and the traffic matrix are
// pure sums over page-granular access counts, so replay can walk this
// histogram instead of the event stream. Livermore kernels touch pages
// sequentially, which collapses the event stream by two to three
// orders of magnitude.
//
// Most order-free configurations are served by the fixed-size fold
// table instead; this histogram exists for the layouts the fold cannot
// represent (block and block-cyclic partitioning, non-power-of-two
// widths), so it is built lazily on first demand rather than as a side
// effect of frameAgg — the block-scan folding below is the most
// expensive per-event work of any replay view.
type readsHist struct {
	reads []aggRun // context reads: ctx is the open assignment/term page
	ctrl  []aggRun // replicated control reads (ctx unused)
}

// readsHist returns the stream's run-length read histogram under the
// given page size, memoized alongside the gid columns.
func (s *Stream) readsHist(pageSize int) *readsHist {
	return s.histCols.get(s, pageSize, (*Stream).buildReadsHist)
}

func (s *Stream) buildReadsHist(pageSize int) *readsHist {
	heads := s.dheads
	gids := s.gidColumn(pageSize)
	a := &readsHist{}
	cur := int32(-1) // open context page, -1 when none

	// Context reads are accumulated per context block: within one
	// context page (one assignment target page, typically pageSize
	// consecutive assignments) the distinct pages read are few, so a
	// small linear-scan table folds the alternating per-statement
	// access pattern (a, b, c, a, b, c, ...) that last-run merging
	// alone cannot compress. The block flushes when the context page
	// moves on or the table fills; duplicate runs are harmless, the
	// histogram is additive.
	const blockCap = 24
	var blkGids [blockCap]int32
	var blkCnts [blockCap]int64
	blkCtx, blkN := int32(-1), 0
	flush := func() {
		for j := 0; j < blkN; j++ {
			a.reads = append(a.reads, aggRun{ctx: blkCtx, gid: blkGids[j], count: blkCnts[j]})
		}
		blkN = 0
	}
	var ctrlGids [blockCap]int32
	var ctrlCnts [blockCap]int64
	ctrlN := 0
	flushCtrl := func() {
		for j := 0; j < ctrlN; j++ {
			a.ctrl = append(a.ctrl, aggRun{ctx: -1, gid: ctrlGids[j], count: ctrlCnts[j]})
		}
		ctrlN = 0
	}

	for i, h := range heads {
		switch h & 7 {
		case opRead:
			g := gids[i]
			if cur >= 0 {
				if cur != blkCtx {
					flush()
					blkCtx = cur
				}
				j := 0
				for ; j < blkN; j++ {
					if blkGids[j] == g {
						blkCnts[j]++
						break
					}
				}
				if j == blkN {
					if blkN == blockCap {
						flush()
					}
					blkGids[blkN], blkCnts[blkN] = g, 1
					blkN++
				}
			} else {
				j := 0
				for ; j < ctrlN; j++ {
					if ctrlGids[j] == g {
						ctrlCnts[j]++
						break
					}
				}
				if j == ctrlN {
					if ctrlN == blockCap {
						flushCtrl()
					}
					ctrlGids[ctrlN], ctrlCnts[ctrlN] = g, 1
					ctrlN++
				}
			}
		case opAssign, opTerm:
			cur = gids[i]
		case opEnd, opEndReduce:
			cur = -1
		}
	}
	flush()
	flushCtrl()
	return a
}

// readRec is one entry of the context-resolved read column: the global
// page id the read touches and the global page id of the open context
// (the assignment or term target page whose owner executes the read),
// or -1 for a replicated control read. The column is what is left of
// the event stream once assignment boundaries are folded into each
// read: the exact input the order-dependent cache classification
// consumes, with every other opcode's effect pre-applied.
//
// Adjacent records with the same (ctx, gid) collapse into one with a
// count. The collapse is order-exact: after a run's first read the
// page is the PE's most recent, so the remaining count−1 reads are
// guaranteed cache hits under every policy (a re-touch of the most
// recent page mutates no replacement state), and replacement state
// after the run equals one touch. It shrinks the column less than a
// page-wise scan suggests, because a statement's reads alternate
// between arrays: at default N and page size 32 the column holds 0.83
// records per event over all kernels (event-weighted), from 0.02 for
// k12 and k24 to 0.99 for k4 and k6.
type readRec struct {
	ctx, gid, count int32
}

// readColumn returns the stream's context-resolved read column under
// the given page size, memoized like the gid columns. The batch
// replayer walks it once per owner map or packed-row configuration: a
// 12-byte record stream with no opcode dispatch, so the walk is bounded
// by the cache arithmetic rather than by decoding.
//
// The column is retained with the stream, one per page size, and its
// backing array is reserved at one record per event: 12 bytes per
// event, three times the gid column. A group of framed configurations
// amortizes that over its members. A call that classifies one
// configuration (Run, or a RunBatchN whose configurations share one
// representative) cannot, so it never asks for the column: its level 1
// walks the event columns directly (peStrings.buildEvents), and a
// daemon answering single points holds no column for any stream.
func (s *Stream) readColumn(pageSize int) []readRec {
	return s.readCols.get(s, pageSize, (*Stream).buildReadColumn)
}

func (s *Stream) buildReadColumn(pageSize int) []readRec {
	heads := s.dheads
	gids := s.gidColumn(pageSize)
	col := make([]readRec, 0, s.events)
	cur := int32(-1)
	for i, h := range heads {
		switch h & 7 {
		case opRead:
			if k := len(col) - 1; k >= 0 && col[k].ctx == cur && col[k].gid == gids[i] {
				col[k].count++
			} else {
				col = append(col, readRec{ctx: cur, gid: gids[i], count: 1})
			}
		case opAssign, opTerm:
			cur = gids[i]
		case opEnd, opEndReduce:
			cur = -1
		}
	}
	return col
}

// foldBits/foldSize dimension the fold table: access counts are keyed
// by the array-local page index modulo foldSize. Under the paper's
// modulo partitioning the owner of a page is its array-local index mod
// NPE, so for any power-of-two NPE ≤ foldSize the owner is fully
// determined by the folded key — which is what lets one table serve
// every such machine width.
const (
	foldBits = 6
	foldSize = 1 << foldBits
)

// foldTable is the stream's access contingency table under one page
// size: context reads bucketed by (context key, page key), control
// reads and assignments bucketed by page key, where a key is the
// array-local page index folded modulo foldSize. For an order-free
// configuration with modulo layout and power-of-two NPE ≤ foldSize,
// per-PE counters and the traffic matrix are exact sums over this
// table (owner = key & (NPE-1)), so classification costs a fixed
// foldSize² walk per configuration no matter how long the stream is —
// the histogram's run count grows with the kernel's working set, this
// does not.
type foldTable struct {
	reads [foldSize * foldSize]int64 // [ctxKey<<foldBits | pageKey] context-read counts
	ctrl  [foldSize]int64            // [pageKey] replicated control-read counts
	wr    [foldSize]int64            // [pageKey] assignment counts
}

// foldTable returns the stream's access contingency table under the
// given page size, memoized alongside the other replay views.
func (s *Stream) foldTable(pageSize int) *foldTable {
	return s.foldTabs.get(s, pageSize, (*Stream).buildFoldTable)
}

func (s *Stream) buildFoldTable(pageSize int) *foldTable {
	heads, lins := s.dheads, s.dlins
	t := &foldTable{}
	ps := int32(pageSize)
	cur := int32(-1) // folded key of the open context page, -1 when none
	for i, h := range heads {
		switch h & 7 {
		case opRead:
			k := (lins[i] / ps) & (foldSize - 1)
			if cur >= 0 {
				t.reads[cur<<foldBits|k]++
			} else {
				t.ctrl[k]++
			}
		case opAssign:
			k := (lins[i] / ps) & (foldSize - 1)
			t.wr[k]++
			cur = k
		case opTerm:
			cur = (lins[i] / ps) & (foldSize - 1)
		case opEnd, opEndReduce:
			cur = -1
		}
	}
	return t
}

// grown returns buf resized to n, reusing its backing array when
// possible, with every element zeroed.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
