package partition

import "fmt"

// Dims describes the extents of a (possibly multi-dimensional) array and
// its row-major linearization. The paper maps "multidimensional arrays
// ... to a linear address space through row-major ordering" (§7); pages
// are then cut from that linear space.
//
// For Dims{d0, d1, ..., dk} index (i0, i1, ..., ik) linearizes to
// ((i0*d1 + i1)*d2 + i2)... — the last index varies fastest.
type Dims []int

// NewDims validates extents and returns a Dims.
func NewDims(extents ...int) (Dims, error) {
	if len(extents) == 0 {
		return nil, fmt.Errorf("partition: array needs at least one dimension")
	}
	for i, e := range extents {
		if e <= 0 {
			return nil, fmt.Errorf("partition: dimension %d has non-positive extent %d", i, e)
		}
	}
	d := make(Dims, len(extents))
	copy(d, extents)
	return d, nil
}

// Elems returns the total number of elements.
func (d Dims) Elems() int {
	n := 1
	for _, e := range d {
		n *= e
	}
	return n
}

// Linear converts a multi-index to its row-major linear offset.
// It panics if the number of indices does not match the rank or an index
// is out of bounds: an out-of-range array reference is a program bug in a
// kernel, mirroring a hardware address fault.
func (d Dims) Linear(idx ...int) int {
	if len(idx) != len(d) {
		panic(fmt.Sprintf("partition: rank mismatch: %d indices for rank-%d array", len(idx), len(d)))
	}
	lin := 0
	for k, i := range idx {
		if i < 0 || i >= d[k] {
			panic(fmt.Sprintf("partition: index %d out of range [0,%d) in dimension %d", i, d[k], k))
		}
		lin = lin*d[k] + i
	}
	return lin
}

// String renders the extents as "[d0 x d1 x ...]".
func (d Dims) String() string {
	out := "["
	for i, e := range d {
		if i > 0 {
			out += " x "
		}
		out += fmt.Sprintf("%d", e)
	}
	return out + "]"
}
