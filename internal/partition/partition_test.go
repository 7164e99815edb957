package partition

import (
	"testing"
	"testing/quick"
)

func TestNewGeometryValidation(t *testing.T) {
	if _, err := NewGeometry(-1, 32); err == nil {
		t.Error("negative elems accepted")
	}
	if _, err := NewGeometry(10, 0); err == nil {
		t.Error("zero page size accepted")
	}
	if _, err := NewGeometry(10, -3); err == nil {
		t.Error("negative page size accepted")
	}
	g, err := NewGeometry(100, 32)
	if err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	if g.Elems != 100 || g.PageSize != 32 {
		t.Errorf("geometry fields = %+v", g)
	}
}

func TestGeometryPages(t *testing.T) {
	cases := []struct {
		elems, ps, want int
	}{
		{0, 32, 0},
		{1, 32, 1},
		{32, 32, 1},
		{33, 32, 2},
		{100, 32, 4}, // paper's example: 100-element arrays, ps 32 -> 3 full + 1 partial
		{64, 32, 2},
		{100, 1, 100},
		{100, 1000, 1},
	}
	for _, c := range cases {
		g := Geometry{Elems: c.elems, PageSize: c.ps}
		if got := g.Pages(); got != c.want {
			t.Errorf("Pages(elems=%d ps=%d) = %d, want %d", c.elems, c.ps, got, c.want)
		}
	}
}

func TestGeometryPageBoundsPartial(t *testing.T) {
	// The paper's running example: arrays of 100 elements, page size 32.
	g := Geometry{Elems: 100, PageSize: 32}
	lo, hi := g.PageBounds(3)
	if lo != 96 || hi != 100 {
		t.Errorf("partial page bounds = [%d,%d), want [96,100)", lo, hi)
	}
	if lo, hi := g.PageBounds(0); lo != 0 || hi != 32 {
		t.Errorf("full page bounds = [%d,%d), want [0,32)", lo, hi)
	}
}

func TestGeometryPageOfOffset(t *testing.T) {
	g := Geometry{Elems: 100, PageSize: 32}
	for i := 0; i < 100; i++ {
		p := g.PageOf(i)
		off := g.Offset(i)
		lo, hi := g.PageBounds(p)
		if i < lo || i >= hi {
			t.Fatalf("element %d not within its page bounds [%d,%d)", i, lo, hi)
		}
		if lo+off != i {
			t.Fatalf("offset decomposition broken: page %d lo %d off %d != %d", p, lo, off, i)
		}
	}
}

func TestPaperExampleMapping(t *testing.T) {
	// §2: four PEs, page size 32, arrays of 100 elements. PE 0 fills
	// A(1..32) i.e. 0-based [0,32), PE1 [32,64), PE2 [64,96), PE3 [96,100).
	g := Geometry{Elems: 100, PageSize: 32}
	l, err := NewModulo(4)
	if err != nil {
		t.Fatal(err)
	}
	wantOwner := func(i int) int {
		switch {
		case i < 32:
			return 0
		case i < 64:
			return 1
		case i < 96:
			return 2
		default:
			return 3
		}
	}
	for i := 0; i < 100; i++ {
		if got := OwnerOfElem(g, l, i); got != wantOwner(i) {
			t.Fatalf("owner of element %d = %d, want %d", i, got, wantOwner(i))
		}
	}
}

func TestModuloOwnerRoundRobin(t *testing.T) {
	m, err := NewModulo(4)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 100; p++ {
		if m.Owner(p) != p%4 {
			t.Fatalf("modulo owner(%d) = %d", p, m.Owner(p))
		}
	}
	if m.NPE() != 4 {
		t.Errorf("NPE = %d", m.NPE())
	}
	if m.Name() != "modulo" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestModuloValidation(t *testing.T) {
	if _, err := NewModulo(0); err == nil {
		t.Error("zero PEs accepted")
	}
	if _, err := NewModulo(-1); err == nil {
		t.Error("negative PEs accepted")
	}
}

func TestBlockOwnerContiguous(t *testing.T) {
	b, err := NewBlock(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 10 pages over 4 PEs: PEs 0,1 get 3 pages, PEs 2,3 get 2 pages.
	want := []int{0, 0, 0, 1, 1, 1, 2, 2, 3, 3}
	for p, w := range want {
		if got := b.Owner(p); got != w {
			t.Errorf("block owner(%d) = %d, want %d", p, got, w)
		}
	}
}

func TestBlockOwnerExactDivision(t *testing.T) {
	b, err := NewBlock(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		if got, want := b.Owner(p), p/2; got != want {
			t.Errorf("owner(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestBlockMorePEsThanPages(t *testing.T) {
	b, err := NewBlock(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2}
	for p, w := range want {
		if got := b.Owner(p); got != w {
			t.Errorf("owner(%d) = %d, want %d", p, got, w)
		}
	}
}

func TestBlockZeroPages(t *testing.T) {
	b, err := NewBlock(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Owner(0); got < 0 || got >= 4 {
		t.Errorf("owner out of range for empty block layout: %d", got)
	}
}

func TestBlockBalance(t *testing.T) {
	// Ownership counts must differ by at most one page.
	for _, npe := range []int{1, 2, 3, 4, 7, 16, 64} {
		for _, pages := range []int{0, 1, 5, 64, 100, 1000} {
			b, err := NewBlock(npe, pages)
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int, npe)
			for p := 0; p < pages; p++ {
				o := b.Owner(p)
				if o < 0 || o >= npe {
					t.Fatalf("npe=%d pages=%d: owner(%d)=%d out of range", npe, pages, p, o)
				}
				counts[o]++
			}
			mn, mx := pages, 0
			for _, c := range counts {
				if c < mn {
					mn = c
				}
				if c > mx {
					mx = c
				}
			}
			if pages >= npe && mx-mn > 1 {
				t.Errorf("npe=%d pages=%d: imbalance %d-%d", npe, pages, mn, mx)
			}
		}
	}
}

func TestBlockMonotone(t *testing.T) {
	// Owners must be non-decreasing in the page index (contiguity).
	b, _ := NewBlock(5, 23)
	prev := 0
	for p := 0; p < 23; p++ {
		o := b.Owner(p)
		if o < prev {
			t.Fatalf("block owners not monotone at page %d: %d < %d", p, o, prev)
		}
		prev = o
	}
}

func TestBlockCyclic(t *testing.T) {
	bc, err := NewBlockCyclic(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 1, 2, 2, 0, 0, 1}
	for p, w := range want {
		if got := bc.Owner(p); got != w {
			t.Errorf("blockcyclic owner(%d) = %d, want %d", p, got, w)
		}
	}
}

func TestBlockCyclicRunOneEqualsModulo(t *testing.T) {
	bc, _ := NewBlockCyclic(5, 1)
	m, _ := NewModulo(5)
	for p := 0; p < 200; p++ {
		if bc.Owner(p) != m.Owner(p) {
			t.Fatalf("run-1 block-cyclic differs from modulo at page %d", p)
		}
	}
}

func TestBlockCyclicValidation(t *testing.T) {
	if _, err := NewBlockCyclic(0, 1); err == nil {
		t.Error("zero PEs accepted")
	}
	if _, err := NewBlockCyclic(4, 0); err == nil {
		t.Error("zero run accepted")
	}
}

func TestMake(t *testing.T) {
	for _, k := range []Kind{KindModulo, KindBlock, KindBlockCyclic} {
		l, err := Make(k, 4, 16, 2)
		if err != nil {
			t.Fatalf("Make(%v): %v", k, err)
		}
		if l.NPE() != 4 {
			t.Errorf("Make(%v).NPE() = %d", k, l.NPE())
		}
		for p := 0; p < 16; p++ {
			if o := l.Owner(p); o < 0 || o >= 4 {
				t.Errorf("Make(%v).Owner(%d) = %d out of range", k, p, o)
			}
		}
	}
	if _, err := Make(Kind(99), 4, 16, 2); err == nil {
		t.Error("unknown kind accepted")
	}
	// Block-cyclic with run<=0 falls back to run 1.
	l, err := Make(KindBlockCyclic, 4, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.Owner(1) != 1 {
		t.Error("fallback run-1 block-cyclic not modulo-like")
	}
}

func TestKindString(t *testing.T) {
	if KindModulo.String() != "modulo" || KindBlock.String() != "block" ||
		KindBlockCyclic.String() != "blockcyclic" {
		t.Error("kind names wrong")
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

func TestPropertyOwnerInRange(t *testing.T) {
	// Property: for any layout and any page, the owner is in [0, NPE).
	f := func(npeRaw uint8, pageRaw uint16, runRaw uint8) bool {
		npe := int(npeRaw%64) + 1
		page := int(pageRaw)
		run := int(runRaw%16) + 1
		layouts := []Layout{
			Modulo{N: npe},
			Block{N: npe, Pages: page + 1},
			BlockCyclic{N: npe, Run: run},
		}
		for _, l := range layouts {
			o := l.Owner(page)
			if o < 0 || o >= npe {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyEveryPageExactlyOneOwner(t *testing.T) {
	// Determinism: repeated Owner calls agree (layouts are pure).
	f := func(npeRaw uint8, pageRaw uint16) bool {
		npe := int(npeRaw%32) + 1
		page := int(pageRaw)
		m := Modulo{N: npe}
		b := Block{N: npe, Pages: 4096}
		return m.Owner(page) == m.Owner(page) && b.Owner(page) == b.Owner(page)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
