package loops

import (
	"sync"
	"sync/atomic"
)

// maxTableValues caps the values every Series table holds together
// (32 MiB of float64). Past the cap a Series evaluates its generator
// directly, so a compiled kernel with many large input arrays costs
// time, not memory.
const maxTableValues = 1 << 22

// minTable is the length of a Series' first table.
const minTable = 1 << 10

// tableValues counts the values every Series table holds.
var tableValues atomic.Int64

// A Series is a pure generator f(i), i >= 0, whose values are computed
// once per process. Under single assignment an input array is defined
// before the program runs and never rewritten, so its contents are a
// function of the cell index alone, and every capture of every kernel
// can read them from one shared table instead of re-evaluating f per
// cell. The table grows on demand, doubling, under a mutex; a grown
// table is published whole through an atomic pointer and never written
// again, so readers never lock. Every value is f's own, bit for bit.
type Series struct {
	f   func(i int) float64
	mu  sync.Mutex // serialises growth
	tab atomic.Pointer[[]float64]
}

// NewSeries returns a Series over f, with an empty table.
func NewSeries(f func(i int) float64) *Series { return &Series{f: f} }

// At returns f(i).
func (s *Series) At(i int) float64 {
	if t := s.tab.Load(); t != nil && uint(i) < uint(len(*t)) {
		return (*t)[i]
	}
	return s.grow(i)
}

// grow extends the table to cover i and returns f(i), or evaluates f(i)
// directly when i is negative or the table would pass maxTableValues.
func (s *Series) grow(i int) float64 {
	if i < 0 || i >= maxTableValues {
		return s.f(i)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var old []float64
	if t := s.tab.Load(); t != nil {
		old = *t
	}
	if i < len(old) { // another writer grew it first
		return old[i]
	}
	size := max(minTable, 2*len(old))
	for size <= i {
		size *= 2
	}
	if !reserve(int64(size - len(old))) {
		return s.f(i)
	}
	t := make([]float64, size)
	copy(t, old)
	for j := len(old); j < size; j++ {
		t[j] = s.f(j)
	}
	s.tab.Store(&t)
	return t[i]
}

// reserve adds n to tableValues unless that would pass maxTableValues.
func reserve(n int64) bool {
	for {
		cur := tableValues.Load()
		if cur+n > maxTableValues {
			return false
		}
		if tableValues.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}
