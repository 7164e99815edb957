// Package partition implements the automatic data-partitioning rules of
// Bic, Nagel & Roy (1989): arrays are segmented into fixed-size pages and
// pages are mapped to processing elements (PEs) by a Layout. The paper's
// default layout is modulo ("a page p is allocated to the local memory of
// PE P if p = P mod N"); the paper's §9 also discusses a "division"
// (block) scheme, and we provide block-cyclic as the natural
// generalization of both.
//
// Control partitioning follows from data partitioning via the
// owner-computes rule: the PE owning the page that holds an assignment's
// target element is responsible for executing that assignment.
package partition

import (
	"fmt"
)

// Geometry describes how one linear address space is split into pages.
// Element indices are 0-based; page p covers elements
// [p*PageSize, min((p+1)*PageSize, Elems)).
type Geometry struct {
	Elems    int // total number of elements
	PageSize int // elements per page (the paper's parameter "ps")
}

// NewGeometry validates and returns a Geometry.
func NewGeometry(elems, pageSize int) (Geometry, error) {
	if elems < 0 {
		return Geometry{}, fmt.Errorf("partition: negative element count %d", elems)
	}
	if pageSize <= 0 {
		return Geometry{}, fmt.Errorf("partition: page size must be positive, got %d", pageSize)
	}
	return Geometry{Elems: elems, PageSize: pageSize}, nil
}

// Pages returns the number of pages, including a trailing partial page.
func (g Geometry) Pages() int {
	if g.Elems == 0 {
		return 0
	}
	return (g.Elems + g.PageSize - 1) / g.PageSize
}

// PageOf returns the page holding element index i.
func (g Geometry) PageOf(i int) int { return i / g.PageSize }

// PageBounds returns the half-open element range [lo, hi) of page p.
// The final page may be partial.
func (g Geometry) PageBounds(p int) (lo, hi int) {
	lo = p * g.PageSize
	hi = lo + g.PageSize
	if hi > g.Elems {
		hi = g.Elems
	}
	return lo, hi
}

// Offset returns the offset of element i within its page.
func (g Geometry) Offset(i int) int { return i % g.PageSize }

// Layout maps page numbers to owning PEs. Implementations must be pure
// functions of the page number: the same page always maps to the same PE.
type Layout interface {
	// Owner returns the PE (in [0, NPE)) owning page p.
	Owner(p int) int
	// NPE returns the number of processing elements.
	NPE() int
	// Name returns a short human-readable scheme name.
	Name() string
}

// Modulo is the paper's default partitioning: page p lives on PE p mod N.
// Consecutive pages round-robin across PEs, interleaving each array over
// the whole machine.
type Modulo struct {
	N int
}

// NewModulo returns a modulo layout over n PEs.
func NewModulo(n int) (Modulo, error) {
	if n <= 0 {
		return Modulo{}, fmt.Errorf("partition: NPE must be positive, got %d", n)
	}
	return Modulo{N: n}, nil
}

// Owner implements Layout.
func (m Modulo) Owner(p int) int { return p % m.N }

// NPE implements Layout.
func (m Modulo) NPE() int { return m.N }

// Name implements Layout.
func (m Modulo) Name() string { return "modulo" }

// Block is the paper's "division scheme" (§9): the page space is divided
// into N contiguous runs, one per PE. It requires the total page count up
// front. With P pages and N PEs, the first P mod N PEs receive
// ceil(P/N) pages and the rest floor(P/N), so ownership is balanced to
// within one page.
type Block struct {
	N     int
	Pages int
}

// NewBlock returns a block (division) layout of pages pages over n PEs.
func NewBlock(n, pages int) (Block, error) {
	if n <= 0 {
		return Block{}, fmt.Errorf("partition: NPE must be positive, got %d", n)
	}
	if pages < 0 {
		return Block{}, fmt.Errorf("partition: negative page count %d", pages)
	}
	return Block{N: n, Pages: pages}, nil
}

// Owner implements Layout.
func (b Block) Owner(p int) int {
	if b.Pages == 0 {
		return 0
	}
	q, r := b.Pages/b.N, b.Pages%b.N
	// PEs [0, r) own q+1 pages each; PEs [r, N) own q pages each.
	cut := r * (q + 1)
	if p < cut {
		return p / (q + 1)
	}
	if q == 0 {
		// More PEs than pages: pages beyond cut do not exist, but keep
		// Owner total so callers probing out-of-range pages stay in range.
		return b.N - 1
	}
	return r + (p-cut)/q
}

// NPE implements Layout.
func (b Block) NPE() int { return b.N }

// Name implements Layout.
func (b Block) Name() string { return "block" }

// BlockCyclic distributes runs of Run consecutive pages round-robin:
// page p is owned by (p/Run) mod N. Run=1 degenerates to Modulo;
// Run>=Pages/N approaches Block.
type BlockCyclic struct {
	N   int
	Run int
}

// NewBlockCyclic returns a block-cyclic layout with runs of run pages.
func NewBlockCyclic(n, run int) (BlockCyclic, error) {
	if n <= 0 {
		return BlockCyclic{}, fmt.Errorf("partition: NPE must be positive, got %d", n)
	}
	if run <= 0 {
		return BlockCyclic{}, fmt.Errorf("partition: run must be positive, got %d", run)
	}
	return BlockCyclic{N: n, Run: run}, nil
}

// Owner implements Layout.
func (b BlockCyclic) Owner(p int) int { return (p / b.Run) % b.N }

// NPE implements Layout.
func (b BlockCyclic) NPE() int { return b.N }

// Name implements Layout.
func (b BlockCyclic) Name() string { return fmt.Sprintf("blockcyclic(%d)", b.Run) }

// Kind selects a layout scheme by name; it is the configuration-level
// counterpart of the Layout interface.
type Kind int

// Layout scheme kinds.
const (
	KindModulo Kind = iota
	KindBlock
	KindBlockCyclic
)

// String returns the scheme name.
func (k Kind) String() string {
	switch k {
	case KindModulo:
		return "modulo"
	case KindBlock:
		return "block"
	case KindBlockCyclic:
		return "blockcyclic"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Make builds a Layout of the given kind for npe PEs over pages pages.
// The run parameter is used only by KindBlockCyclic.
func Make(k Kind, npe, pages, run int) (Layout, error) {
	switch k {
	case KindModulo:
		return NewModulo(npe)
	case KindBlock:
		return NewBlock(npe, pages)
	case KindBlockCyclic:
		if run <= 0 {
			run = 1
		}
		return NewBlockCyclic(npe, run)
	default:
		return nil, fmt.Errorf("partition: unknown layout kind %d", int(k))
	}
}

// OwnerOfElem is a convenience composing Geometry and Layout: the PE
// owning element i.
func OwnerOfElem(g Geometry, l Layout, i int) int { return l.Owner(g.PageOf(i)) }
