package refstream

// twolevel.go — framed classification in two levels. A PE's page cache
// is private and, under single assignment, never invalidated (§4), so
// all a framed configuration's cache ever sees is its PE's own string
// of remote-page reads, and that string is fixed by the owner map:
// (NPE, page size, layout, layout run). Level 1 walks a group's
// context-resolved read column once per owner map (peStrings.build), or
// a one-configuration call's event columns (peStrings.buildEvents), and
// writes every PE's local-read count and remote-page string.
// Level 2 classifies each framed configuration of the map from the
// strings alone: one move-to-front walk per PE prices every LRU size of
// the map at once (Mattson et al.'s inclusion property: an LRU cache of
// s frames holds exactly the s most recently used pages, so a re-read
// at recency depth d hits every size above d), and FIFO, Clock and
// Random run policyRow, which makes cache.Cache's decisions without
// its linked list.

import (
	"repro/internal/cache"
	"repro/internal/partition"
	"repro/internal/sim"
)

// A PE's remote-page string is the sequence of pages it reads
// remotely, one element per run: consecutive reads of one page, no
// other remote page read in between, fold into their first. After the
// first read the page is the PE's most recent and resident, and a
// re-touch changes no replacement state under any policy (see readRec),
// so the run's other reads are hits everywhere and level 2 needs only
// the page. The reads themselves are tallied in peString.remote.
//
// blockRuns is the length of a string block. Strings are written in one
// pass, so their lengths are unknown until it ends: each PE's string is
// a chain of fixed-size blocks drawn from one pool, and a PE's last
// block is the only one not full. The pool therefore never holds more
// than the largest build's runs plus one block per PE, whatever mix of
// configurations a Replayer serves (TestOneConfigScratchBounded).
const blockRuns = 256

// peString is level 1's output for one PE: its local and non-local
// reads and its remote-page string, a chain of pool blocks, the last
// of them filled to len(tail).
type peString struct {
	local, remote int64
	tail          []int32 // the chain's last block, filled to its length
	head          int32   // the chain's first block in the pool; -1 while empty
	blk           int32   // the chain's last block in the pool
	page          int32   // the page of the last run; -1 while empty
}

// peStrings is level 1's output for one owner map, reused map after
// map: a peString per PE. Two feeders write it in one pass each: build
// from a group's memoized read column, buildEvents from the stream's
// event columns for a one-configuration call, which so never builds a
// read column (see readColumn). Level 2 walks PE p's string block by
// block: pool[b] for b from str[p].head along link.
type peStrings struct {
	str  []peString // per PE
	pool [][]int32  // string blocks of capacity blockRuns, each filled to its length
	link []int32    // by block: the next block of its string, -1 after the last
	used int        // blocks handed out by the current build
}

// reset empties every PE's string and tallies for a build over npe PEs.
func (s *peStrings) reset(npe int) {
	s.str = grown(s.str, npe)
	for p := range s.str {
		s.str[p] = peString{head: -1, page: -1}
	}
	s.used = 0
}

// add appends a read of page g to string x, where a re-read of the
// last run's page extends that run, and reports false, writing nothing,
// when a new run needs a new block (addBlock). It is the fast path both
// feeders' loops inline.
func (x *peString) add(g int32) bool {
	if x.page == g {
		return true
	}
	n := len(x.tail)
	if n == cap(x.tail) {
		return false
	}
	x.page = g
	x.tail = x.tail[:n+1]
	x.tail[n] = g
	return true
}

// addBlock chains the pool's next free block onto string x, allocating
// it on first use, and starts it with a run of page g.
func (s *peStrings) addBlock(x *peString, g int32) {
	b := int32(s.used)
	s.used++
	if int(b) == len(s.pool) {
		s.pool = append(s.pool, make([]int32, 0, blockRuns))
		s.link = append(s.link, -1)
	}
	s.link[b] = -1
	if x.head < 0 {
		x.head = b
	} else {
		s.pool[x.blk] = x.tail // full
		s.link[x.blk] = b
	}
	x.blk = b
	x.page = g
	x.tail = append(s.pool[b][:0], g)
}

// seal records each string's last block at its filled length, so level
// 2 walks every block alike.
func (s *peStrings) seal() {
	for p := range s.str {
		if x := &s.str[p]; x.head >= 0 {
			s.pool[x.blk] = x.tail
		}
	}
}

// build is level 1 over a group's read column, in one pass under one
// owner table. A control read (ctx < 0) is executed by every PE, so it
// lands in every PE's string but its owner's, as in the simulator.
func (s *peStrings) build(col []readRec, npe int, owners []int32) {
	s.reset(npe)
	str := s.str
	lastCtx, cur := int32(-2), -1 // -2: no owner lookup cached yet
	var x *peString               // cur's string
	for _, rc := range col {
		if rc.ctx != lastCtx {
			lastCtx = rc.ctx
			cur = -1
			if lastCtx >= 0 {
				cur = int(owners[lastCtx])
				x = &str[cur]
			}
		}
		gid, c := rc.gid, int64(rc.count)
		owner := int(owners[gid])
		if cur >= 0 {
			if owner == cur {
				x.local += c
				continue
			}
			x.remote += c
			if !x.add(gid) {
				s.addBlock(x, gid)
			}
			continue
		}
		for pe := range str {
			y := &str[pe]
			if pe == owner {
				y.local += c
				continue
			}
			y.remote += c
			if !y.add(gid) {
				s.addBlock(y, gid)
			}
		}
	}
	s.seal()
}

// buildEvents is level 1 for a one-configuration call: the same strings
// as build, from one walk of the stream's decoded heads and its page-id
// column gids. An assignment or term opens the context its target
// page's owner executes; the reads until the next end are that PE's,
// and a read outside every context is a control read, executed by every
// PE. Consecutive reads of one page extend one run, so the strings
// equal build's, whose column merged them first.
func (s *peStrings) buildEvents(heads []uint32, gids []int32, npe int, owners []int32) {
	s.reset(npe)
	str := s.str
	cur := -1       // the PE executing the open context; -1 outside one
	var x *peString // cur's string
	for i, h := range heads {
		switch h & 7 {
		case opRead:
			gid := gids[i]
			owner := int(owners[gid])
			if cur >= 0 {
				if owner == cur {
					x.local++
					continue
				}
				x.remote++
				if !x.add(gid) {
					s.addBlock(x, gid)
				}
				continue
			}
			for pe := range str {
				y := &str[pe]
				if pe == owner {
					y.local++
					continue
				}
				y.remote++
				if !y.add(gid) {
					s.addBlock(y, gid)
				}
			}
		case opAssign, opTerm:
			cur = int(owners[gids[i]])
			x = &str[cur]
		case opEnd, opEndReduce:
			cur = -1
		}
	}
	s.seal()
}

// pageStamps answers "is page g resident in the row being walked" with
// one load: stamp[g] == epoch. Each walk of one PE's string under one
// configuration takes a fresh epoch, so no walk clears the table.
type pageStamps struct {
	stamp []uint32 // by gid; 0 is never an epoch
	epoch uint32
}

// next starts a walk over a page space of pages ids and returns its
// epoch.
func (s *pageStamps) next(pages int) uint32 {
	if len(s.stamp) < pages {
		s.stamp = make([]uint32, pages)
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could alias new epochs
		clear(s.stamp)
		s.epoch = 1
	}
	return s.epoch
}

// lruStack is one PE's recency row for every LRU configuration of an
// owner map: the most recently used pages, most recent first, truncated
// at the map's largest frame count. A re-read at depth d hits every
// size above d and misses every size at or below it; mOf[d] counts the
// sizes it misses, and a page absent from the row misses them all.
type lruStack struct {
	row   []int32
	mOf   []int32 // by depth: the number of sizes ≤ depth
	sizes int32   // the number of sizes
	stamp []uint32
	epoch uint32
}

// touch reads page g and returns how many of the sizes (the smallest
// ones) miss it: 0 is a hit for every size.
func (s *lruStack) touch(g int32) int32 {
	row := s.row
	if s.stamp[g] == s.epoch {
		// One pass finds g and slides the pages above it down a place.
		d, prev := 0, row[0]
		row[0] = g
		for prev != g {
			d++
			row[d], prev = prev, row[d]
		}
		return s.mOf[d]
	}
	if n := len(row); n < cap(row) {
		row = row[:n+1]
		s.row = row
	} else {
		s.stamp[row[n-1]] = 0 // falls past the largest size
	}
	copy(row[1:], row[:len(row)-1])
	row[0] = g
	s.stamp[g] = s.epoch
	return s.sizes
}

// policyRow is one PE's cache under FIFO, Clock or Random, reduced to
// what classification needs: the resident pages in insertion order and
// a by-page stamp that answers residency in one load. It makes exactly
// cache.Cache's decisions under replay's lookup, insert-on-miss
// discipline (FuzzPolicyRowsMatchCache):
//
//   - FIFO evicts the oldest page; once full the row is a ring whose
//     oldest slot is head.
//   - Random draws cache.NextRandom on each eviction and evicts the
//     page of rank draw mod n counted from the newest.
//   - Clock's hand (head) sweeps from the oldest page towards the
//     newest, wrapping, clearing reference bits, and evicts the first
//     page whose bit is clear. It then rests on the victim's older
//     neighbour, or on the oldest page when the victim was the oldest:
//     where cache.Cache's list removal leaves it.
//
// A hit sets the page's reference bit under every policy; only Clock
// reads it.
type policyRow struct {
	policy cache.Policy
	frames int
	row    []int32 // resident pages, oldest first (FIFO: a ring once full)
	head   int     // FIFO: the oldest slot of the full ring; Clock: the hand
	rng    uint64  // Random's generator
	ref    []bool  // by gid: reference bits of resident pages
	stamp  []uint32
	epoch  uint32
}

// touch reads page g and reports whether it hit; a miss inserts it.
func (r *policyRow) touch(g int32) bool {
	if r.stamp[g] == r.epoch {
		r.ref[g] = true
		return true
	}
	r.insert(g)
	return false
}

// insert makes the non-resident page g the newest, evicting one page
// when the row is full.
func (r *policyRow) insert(g int32) {
	r.stamp[g] = r.epoch
	r.ref[g] = true
	n := len(r.row)
	if n < r.frames {
		r.row = append(r.row, g) // within capacity: see classifyMap
		return
	}
	var v int
	switch r.policy {
	case cache.FIFO:
		v = r.head
		r.stamp[r.row[v]] = 0
		r.row[v] = g
		if r.head++; r.head == n {
			r.head = 0
		}
		return
	case cache.Random:
		r.rng = cache.NextRandom(r.rng)
		v = n - 1 - int(r.rng%uint64(n))
	default: // Clock
		v = r.head
		for r.ref[r.row[v]] {
			r.ref[r.row[v]] = false
			if v++; v == n {
				v = 0
			}
		}
		r.head = max(v-1, 0)
	}
	r.stamp[r.row[v]] = 0
	copy(r.row[v:], r.row[v+1:])
	r.row[n-1] = g
}

// twoLevel is a Replayer's scratch for two-level classification,
// reused owner map after owner map.
type twoLevel struct {
	peStrings
	pageStamps
	row []int32 // one PE's recency or policy row
	ref []bool  // policyRow reference bits, by gid
	mOf []int32 // lruStack.mOf
	cnt []int64 // one PE's LRU misses, by (owner, sizes missed)
	stk []int   // the map's LRU configurations, ascending frames
	fr  []int   // their frame counts
	nfr int32   // the number of sizes sizeStacks prepared
}

// sizeStacks prepares lruStack walks for LRU sizes frames (ascending)
// over a page space of pages ids: a row never holds more pages than
// exist, so the row stops at min(largest size, pages).
func (t *twoLevel) sizeStacks(frames []int, pages int) {
	depth := min(frames[len(frames)-1], pages)
	t.nfr = int32(len(frames))
	t.mOf = grown(t.mOf, depth)
	for d, j := 0, 0; d < depth; d++ {
		for j < len(frames) && frames[j] <= d {
			j++
		}
		t.mOf[d] = int32(j)
	}
	if cap(t.row) < depth {
		t.row = make([]int32, 0, depth)
	}
}

// stack returns an empty lruStack, sized by sizeStacks, for one walk.
func (t *twoLevel) stack(pages int) lruStack {
	epoch := t.next(pages)
	depth := len(t.mOf)
	return lruStack{row: t.row[:0:depth], mOf: t.mOf, sizes: t.nfr, stamp: t.stamp, epoch: epoch}
}

// policyRow returns an empty policyRow over a page space of pages ids,
// for one walk.
func (t *twoLevel) policyRow(policy cache.Policy, frames, pages int) policyRow {
	if n := min(frames, pages); cap(t.row) < n { // a row never holds more pages than exist
		t.row = make([]int32, 0, n)
	}
	if len(t.ref) < pages {
		t.ref = make([]bool, pages)
	}
	epoch := t.next(pages)
	return policyRow{policy: policy, frames: frames, row: t.row[:0], rng: cache.RandomSeed, ref: t.ref, stamp: t.stamp, epoch: epoch}
}

// mapKey identifies an owner map: the parameters the owner table is a
// function of.
type mapKey struct {
	npe, pageSize int
	layout        partition.Kind
	run           int
}

// ownerMap is one owner map of a chunk: the framed configurations that
// share its key, batchState.mapCfg[lo:hi] in input order.
type ownerMap struct {
	key    mapKey
	lo, hi int
}

// classifyMap classifies every configuration of owner map m from the PE
// strings level 1 built under owners (peStrings.build or buildEvents):
// level 2 prices all LRU sizes in one stack walk per PE and each FIFO,
// Clock or Random configuration on its own rows. Writes and reductions
// come from the structural summary, as on every framed path.
func (r *Replayer) classifyMap(cfgs []sim.Config, agg *frameAgg, m ownerMap, owners []int32) {
	b, t := &r.bat, &r.two
	members := b.mapCfg[m.lo:m.hi]
	npe := m.key.npe

	t.stk = t.stk[:0]
	for _, i := range members {
		if b.class[i].path == pathStack {
			t.stk = append(t.stk, i)
		} else {
			r.pricePolicy(i, cfgs[i].Policy, npe, owners)
		}
	}
	if len(t.stk) > 0 {
		r.priceLRU(npe, owners)
	}
	for _, i := range members {
		lo := b.peOff[i]
		perPE := b.perPE[lo : lo+npe]
		for p := range perPE {
			perPE[p].LocalReads = t.str[p].local
			perPE[p].CachedReads = t.str[p].remote - perPE[p].RemoteReads
		}
		// Level 2 counted each miss once, at (reader, owner): the page
		// request. The reply travels back.
		traf := b.traf[b.trafOff[i]:b.trafOff[i+1]]
		for p := 0; p < npe; p++ {
			for q := p + 1; q < npe; q++ {
				s := traf[p*npe+q] + traf[q*npe+p]
				traf[p*npe+q], traf[q*npe+p] = s, s
			}
		}
		aggregateWrites(agg, owners, perPE)
		b.reduceS[i], b.reduceB[i] = aggregateReduces(agg, npe, owners, traf, b.particip[lo:lo+npe])
	}
}

// priceLRU charges the misses of every LRU configuration of the map
// (twoLevel.stk) from one move-to-front walk per PE string. Misses are
// tallied per (owner, number of sizes missed) and summed into each
// size's counters once per PE.
func (r *Replayer) priceLRU(npe int, owners []int32) {
	b, t := &r.bat, &r.two
	stk := t.stk
	for j := 1; j < len(stk); j++ { // a map holds a handful: insertion sort
		for x := j; x > 0 && b.maxPages[stk[x]] < b.maxPages[stk[x-1]]; x-- {
			stk[x], stk[x-1] = stk[x-1], stk[x]
		}
	}
	t.fr = t.fr[:0]
	for _, i := range stk {
		t.fr = append(t.fr, b.maxPages[i])
	}
	pages := len(owners)
	t.sizeStacks(t.fr, pages)
	k := len(stk)
	stride := k + 1
	t.cnt = grown(t.cnt, npe*stride)
	cnt := t.cnt
	for p := 0; p < npe; p++ {
		s := t.stack(pages)
		for blk := t.str[p].head; blk >= 0; blk = t.link[blk] {
			for _, g := range t.pool[blk] {
				if m := s.touch(g); m > 0 {
					cnt[int(owners[g])*stride+int(m)]++
				}
			}
		}
		for o := 0; o < npe; o++ {
			c := cnt[o*stride : o*stride+stride]
			var acc int64 // misses of size stk[m-1]: every run that missed ≥ m sizes
			for m := k; m > 0; m-- {
				acc += c[m]
				c[m] = 0
				if acc > 0 {
					i := stk[m-1]
					b.perPE[b.peOff[i]+p].RemoteReads += acc
					b.traf[b.trafOff[i]+p*npe+o] += acc
				}
			}
		}
	}
}

// pricePolicy charges the misses of FIFO, Clock or Random configuration
// i, one policyRow walk per PE string.
func (r *Replayer) pricePolicy(i int, policy cache.Policy, npe int, owners []int32) {
	b, t := &r.bat, &r.two
	perPE := b.perPE[b.peOff[i] : b.peOff[i]+npe]
	traf := b.traf[b.trafOff[i]:b.trafOff[i+1]]
	for p := 0; p < npe; p++ {
		row := t.policyRow(policy, b.maxPages[i], len(owners))
		var misses int64
		for blk := t.str[p].head; blk >= 0; blk = t.link[blk] {
			for _, g := range t.pool[blk] {
				if !row.touch(g) {
					misses++
					traf[p*npe+int(owners[g])]++
				}
			}
		}
		perPE[p].RemoteReads = misses
	}
}
