// Package cluster scales the classification service from one daemon
// to a fault-tolerant shard set: a Router consistent-hashes capture
// groups (kernel, clamped N) onto local shard processes, forwards
// /v1/classify and /v1/sweep over HTTP with per-shard timeouts and
// retry-on-peer failover, and merges sweep grids that span shards
// while preserving grid order and the lowest-index-error contract.
//
// The paper's single-assignment principle is what makes this sound:
// a reference stream is captured once per (kernel, N) and is immutable
// thereafter, so any shard can serve any group bit-identically — there
// is no shard-local mutable state a failover could lose. Killing a
// shard mid-sweep costs a retry, never a wrong byte (the chaos suite
// pins exactly this). See docs/CLUSTER.md.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// replicas is the virtual-node count per shard on the hash ring: enough
// that 3 shards split the 11-kernel paper set roughly evenly, small
// enough that ring construction is trivial.
const replicas = 64

// ring is a consistent-hash ring over shard IDs with virtual nodes.
// Immutable after newRing; shard health is the Router's concern — the
// ring always answers with the full preference order and the caller
// skips the shards it believes are down, so placement never shifts
// when health flaps (a down shard's groups land on the next peer in
// its preference order, and return home when it recovers).
type ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

func newRing(shards int) *ring {
	r := &ring{points: make([]ringPoint, 0, shards*replicas), shards: shards}
	for s := 0; s < shards; s++ {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("shard-%d-vn-%d", s, v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// GroupKey names a capture group: the unit of placement. One group =
// one reference stream = one (kernel, clamped N) pair, the same key
// the stream cache and capture store use.
func GroupKey(kernel string, n int) string {
	return fmt.Sprintf("%s/n=%d", kernel, n)
}

// order returns every distinct shard in ring-walk order from the
// key's position: order[0] is the group's home shard, order[1] the
// first failover peer, and so on. Deterministic for a given (key,
// shard count, replicas), which is what makes placement stable across
// router restarts and test runs.
func (r *ring) order(key string) []int {
	out := make([]int, 0, r.shards)
	if len(r.points) == 0 {
		return out
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make([]bool, r.shards)
	for i := 0; len(out) < r.shards && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}
