package partition

import (
	"testing"
	"testing/quick"
)

func TestNewDimsValidation(t *testing.T) {
	if _, err := NewDims(); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := NewDims(3, 0); err == nil {
		t.Error("zero extent accepted")
	}
	if _, err := NewDims(-2); err == nil {
		t.Error("negative extent accepted")
	}
	d, err := NewDims(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 3 || d.Elems() != 60 {
		t.Errorf("rank=%d elems=%d", len(d), d.Elems())
	}
}

func TestNewDimsCopiesInput(t *testing.T) {
	src := []int{2, 3}
	d, err := NewDims(src...)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 99
	if d[0] != 2 {
		t.Error("NewDims aliases caller slice")
	}
}

func TestLinearRowMajor(t *testing.T) {
	d := Dims{3, 4}
	// Row-major: last index fastest.
	if d.Linear(0, 0) != 0 {
		t.Error("(0,0) != 0")
	}
	if d.Linear(0, 3) != 3 {
		t.Error("(0,3) != 3")
	}
	if d.Linear(1, 0) != 4 {
		t.Error("(1,0) != 4")
	}
	if d.Linear(2, 3) != 11 {
		t.Error("(2,3) != 11")
	}
}

func TestLinear3D(t *testing.T) {
	d := Dims{2, 3, 4}
	want := 0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				if got := d.Linear(i, j, k); got != want {
					t.Fatalf("Linear(%d,%d,%d) = %d, want %d", i, j, k, got, want)
				}
				want++
			}
		}
	}
}

func TestLinearPanics(t *testing.T) {
	d := Dims{3, 4}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("rank mismatch", func() { d.Linear(1) })
	mustPanic("index too large", func() { d.Linear(3, 0) })
	mustPanic("negative index", func() { d.Linear(0, -1) })
	mustPanic("delinear out of range", func() { d.Delinear(12) })
	mustPanic("delinear negative", func() { d.Delinear(-1) })
}

func TestDelinearRoundTrip(t *testing.T) {
	d := Dims{3, 5, 7}
	for lin := 0; lin < d.Elems(); lin++ {
		idx := d.Delinear(lin)
		if got := d.Linear(idx...); got != lin {
			t.Fatalf("roundtrip failed at %d: idx=%v -> %d", lin, idx, got)
		}
	}
}

func TestDimsString(t *testing.T) {
	d := Dims{3, 4}
	if d.String() != "[3 x 4]" {
		t.Errorf("String = %q", d.String())
	}
	if (Dims{7}).String() != "[7]" {
		t.Errorf("String = %q", (Dims{7}).String())
	}
}

func TestPropertyLinearDelinearRoundTrip(t *testing.T) {
	f := func(a, b, c uint8, pick uint16) bool {
		d := Dims{int(a%7) + 1, int(b%7) + 1, int(c%7) + 1}
		lin := int(pick) % d.Elems()
		idx := d.Delinear(lin)
		return d.Linear(idx...) == lin
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyLinearBijective(t *testing.T) {
	// All linear offsets in [0, Elems) are hit exactly once.
	d := Dims{4, 3, 2}
	seen := make([]bool, d.Elems())
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 2; k++ {
				lin := d.Linear(i, j, k)
				if seen[lin] {
					t.Fatalf("offset %d hit twice", lin)
				}
				seen[lin] = true
			}
		}
	}
	for lin, s := range seen {
		if !s {
			t.Fatalf("offset %d never hit", lin)
		}
	}
}
