package refstream

// twolevel.go — framed classification in two levels. A PE's page cache
// is private and, under single assignment, never invalidated (§4), so
// all a framed configuration's cache ever sees is its PE's own string
// of remote-page reads, and that string is fixed by the owner map:
// (NPE, page size, layout, layout run). Level 1 walks the
// context-resolved read column once per owner map and writes every
// PE's local-read count and remote-page string (peStrings.build).
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

// pageRun is one element of a PE's remote-page string: count
// consecutive reads of page gid, no other remote page read in between.
// After the first read the page is the PE's most recent and resident,
// and a re-touch changes no replacement state under any policy (see
// readRec), so the run's other count−1 reads are hits everywhere. The
// count is bounded by the stream's read events.
type pageRun struct{ gid, count int32 }

// peStrings is level 1's output for one owner map, reused map after
// map: each PE's local reads, its non-local reads (the sum of its
// string's counts) and its remote-page string, every PE's string in one
// PE-major slab sized by a counting pass.
type peStrings struct {
	local, remote []int64 // per PE
	off           []int   // PE p's string is runs[off[p]:off[p+1]]
	runs          []pageRun
	last          []int32 // per PE: the page of the string's last run
	pos           []int   // per PE: the fill pass's write position
}

// build walks the read column twice under one owner table: a counting
// pass sizes every PE's string and tallies local and non-local reads,
// a fill pass writes the strings. A control read (ctx < 0) is executed
// by every PE, so it lands in every PE's string but its owner's, as in
// the simulator.
func (s *peStrings) build(col []readRec, npe int, owners []int32) {
	s.local = grown(s.local, npe)
	s.remote = grown(s.remote, npe)
	s.off = grown(s.off, npe+1)
	s.last = grown(s.last, npe)
	s.pos = grown(s.pos, npe)
	local, remote, last := s.local, s.remote, s.last
	lens := s.off[1:] // the counting pass leaves PE p's run count in off[p+1]
	for p := range last {
		last[p] = -1
	}
	lastCtx, cur := int32(-2), -1 // -2: no owner lookup cached yet
	for _, rc := range col {
		if rc.ctx != lastCtx {
			lastCtx = rc.ctx
			cur = -1
			if lastCtx >= 0 {
				cur = int(owners[lastCtx])
			}
		}
		gid, c := rc.gid, int64(rc.count)
		owner := int(owners[gid])
		if cur >= 0 {
			if owner == cur {
				local[cur] += c
				continue
			}
			remote[cur] += c
			if last[cur] != gid {
				last[cur] = gid
				lens[cur]++
			}
			continue
		}
		for pe := 0; pe < npe; pe++ {
			if pe == owner {
				local[pe] += c
				continue
			}
			remote[pe] += c
			if last[pe] != gid {
				last[pe] = gid
				lens[pe]++
			}
		}
	}
	for p := 0; p < npe; p++ {
		s.off[p+1] += s.off[p]
		s.pos[p] = s.off[p]
		last[p] = -1
	}
	if total := s.off[npe]; cap(s.runs) < total {
		s.runs = make([]pageRun, total)
	} else {
		s.runs = s.runs[:total]
	}
	runs, pos := s.runs, s.pos
	lastCtx, cur = -2, -1
	for _, rc := range col {
		if rc.ctx != lastCtx {
			lastCtx = rc.ctx
			cur = -1
			if lastCtx >= 0 {
				cur = int(owners[lastCtx])
			}
		}
		gid := rc.gid
		owner := int(owners[gid])
		if cur >= 0 {
			if owner == cur {
				continue
			}
			if last[cur] == gid {
				runs[pos[cur]-1].count += rc.count
			} else {
				last[cur] = gid
				runs[pos[cur]] = pageRun{gid, rc.count}
				pos[cur]++
			}
			continue
		}
		for pe := 0; pe < npe; pe++ {
			if pe == owner {
				continue
			}
			if last[pe] == gid {
				runs[pos[pe]-1].count += rc.count
			} else {
				last[pe] = gid
				runs[pos[pe]] = pageRun{gid, rc.count}
				pos[pe]++
			}
		}
	}
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
		d := 0
		for row[d] != g {
			d++
		}
		copy(row[1:d+1], row[:d])
		row[0] = g
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

// classifyMap classifies every configuration of owner map m: level 1
// builds the PE strings from the read column, level 2 prices all LRU
// sizes in one stack walk per PE and each FIFO, Clock or Random
// configuration on its own rows. Writes and reductions come from the
// structural summary, as on every column path.
func (r *Replayer) classifyMap(cfgs []sim.Config, col []readRec, agg *frameAgg, m ownerMap) {
	b, t := &r.bat, &r.two
	members := b.mapCfg[m.lo:m.hi]
	npe := m.key.npe
	first := members[0]
	owners := b.owners[b.ownOff[first]:b.ownOff[first+1]] // every member's table is this one
	t.build(col, npe, owners)

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
			perPE[p].LocalReads = t.local[p]
			perPE[p].CachedReads = t.remote[p] - perPE[p].RemoteReads
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
	for p := 0; p < npe; p++ {
		s := t.stack(pages)
		for _, run := range t.runs[t.off[p]:t.off[p+1]] {
			if m := s.touch(run.gid); m > 0 {
				t.cnt[int(owners[run.gid])*stride+int(m)]++
			}
		}
		for o := 0; o < npe; o++ {
			c := t.cnt[o*stride : o*stride+stride]
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
		for _, run := range t.runs[t.off[p]:t.off[p+1]] {
			if !row.touch(run.gid) {
				misses++
				traf[p*npe+int(owners[run.gid])]++
			}
		}
		perPE[p].RemoteReads = misses
	}
}
