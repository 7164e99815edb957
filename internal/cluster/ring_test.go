package cluster

import (
	"reflect"
	"testing"

	"repro/internal/loops"
)

// TestRingOrderDeterministicAndComplete pins the placement contract:
// order() lists every shard exactly once, identically across ring
// rebuilds, and group keys spread across shards rather than piling
// onto one.
func TestRingOrderDeterministicAndComplete(t *testing.T) {
	const shards = 3
	r1 := newRing(shards)
	r2 := newRing(shards)
	used := map[int]bool{}
	for _, k := range loops.PaperSet() {
		key := GroupKey(k.Key, k.DefaultN)
		o1, o2 := r1.order(key), r2.order(key)
		if !reflect.DeepEqual(o1, o2) {
			t.Fatalf("%s: order not deterministic: %v vs %v", key, o1, o2)
		}
		if len(o1) != shards {
			t.Fatalf("%s: order %v does not cover all %d shards", key, o1, shards)
		}
		seen := map[int]bool{}
		for _, s := range o1 {
			if s < 0 || s >= shards || seen[s] {
				t.Fatalf("%s: order %v has out-of-range or duplicate shards", key, o1)
			}
			seen[s] = true
		}
		used[o1[0]] = true
	}
	if len(used) < 2 {
		t.Errorf("the paper set's home shards all collapsed onto %v — virtual nodes are not spreading", used)
	}
}

// TestRingOrderStableUnderKeyChange verifies that two distinct group
// keys do not share preference order wholesale (the walk starts at the
// key's own position).
func TestRingOrderStableUnderKeyChange(t *testing.T) {
	r := newRing(5)
	orders := map[string][]int{}
	for _, k := range loops.PaperSet() {
		orders[k.Key] = r.order(GroupKey(k.Key, k.DefaultN))
	}
	distinct := map[string]bool{}
	for _, o := range orders {
		distinct[orderSig(o)] = true
	}
	if len(distinct) < 2 {
		t.Errorf("all %d group keys share one preference order — hashing is degenerate", len(orders))
	}
}

func orderSig(o []int) string {
	b := make([]byte, len(o))
	for i, v := range o {
		b[i] = byte('0' + v)
	}
	return string(b)
}
