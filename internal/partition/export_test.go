package partition

import "fmt"

// Delinear converts a row-major linear offset back to a multi-index.
func (d Dims) Delinear(lin int) []int {
	if lin < 0 || lin >= d.Elems() {
		panic(fmt.Sprintf("partition: linear offset %d out of range [0,%d)", lin, d.Elems()))
	}
	idx := make([]int, len(d))
	for k := len(d) - 1; k >= 0; k-- {
		idx[k] = lin % d[k]
		lin /= d[k]
	}
	return idx
}
