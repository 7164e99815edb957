package loops

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegistryComplete(t *testing.T) {
	ks := All()
	if len(ks) != 26 { // 24 kernels + 2 fragments
		t.Fatalf("registry holds %d kernels, want 26", len(ks))
	}
	seenKey := map[string]bool{}
	seenID := map[int]bool{}
	for _, k := range ks {
		if seenKey[k.Key] {
			t.Errorf("duplicate key %q", k.Key)
		}
		seenKey[k.Key] = true
		if k.ID != 0 {
			if seenID[k.ID] {
				t.Errorf("duplicate ID %d", k.ID)
			}
			seenID[k.ID] = true
		}
		if k.Run == nil || k.Arrays == nil || len(k.Outputs) == 0 {
			t.Errorf("kernel %s incomplete", k.Key)
		}
		if k.DefaultN < k.MinN {
			t.Errorf("kernel %s: DefaultN %d < MinN %d", k.Key, k.DefaultN, k.MinN)
		}
	}
	for id := 1; id <= 24; id++ {
		if !seenID[id] {
			t.Errorf("Livermore kernel %d missing", id)
		}
	}
}

func TestByKey(t *testing.T) {
	k, err := ByKey("k1")
	if err != nil || k.ID != 1 {
		t.Errorf("ByKey(k1) = %v, %v", k, err)
	}
	if _, err := ByKey("nope"); err == nil {
		t.Error("unknown key accepted")
	}
}

func TestPaperSet(t *testing.T) {
	ps := PaperSet()
	if len(ps) != 11 {
		t.Fatalf("paper set has %d kernels", len(ps))
	}
	// The paper's taxonomy must be represented.
	byClass := map[Class]int{}
	for _, k := range ps {
		byClass[k.Class]++
	}
	if byClass[MD] < 1 || byClass[SD] < 5 || byClass[CD] < 2 || byClass[RD] < 2 {
		t.Errorf("class coverage = %v", byClass)
	}
}

func TestAllKernelsRunSequentially(t *testing.T) {
	// Every kernel must execute on the reference engine without
	// single-assignment violations or reads of undefined cells, and must
	// produce finite, nonempty output.
	for _, k := range All() {
		k := k
		t.Run(k.Key, func(t *testing.T) {
			n := k.DefaultN
			if n > 300 {
				n = 300 // keep the full-suite run quick
			}
			res, err := RunSeq(k, n)
			if err != nil {
				t.Fatalf("%s: %v", k.Key, err)
			}
			for _, cs := range res.Checksums {
				if cs.Defined == 0 {
					t.Errorf("%s: output %s has no defined cells", k.Key, cs.Name)
				}
				if math.IsNaN(cs.Sum) || math.IsInf(cs.Sum, 0) {
					t.Errorf("%s: output %s checksum not finite: %v", k.Key, cs.Name, cs.Sum)
				}
			}
		})
	}
}

func TestAllKernelsRunAtMinN(t *testing.T) {
	for _, k := range All() {
		if _, err := RunSeq(k, k.MinN); err != nil {
			t.Errorf("%s at MinN=%d: %v", k.Key, k.MinN, err)
		}
	}
}

func TestKernelsDeterministic(t *testing.T) {
	for _, key := range []string{"k1", "k2", "k6", "k13", "k18"} {
		k, err := ByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		r1, err1 := RunSeq(k, 100)
		r2, err2 := RunSeq(k, 100)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", key, err1, err2)
		}
		for i := range r1.Checksums {
			if r1.Checksums[i] != r2.Checksums[i] {
				t.Errorf("%s: run-to-run checksum drift: %+v vs %+v",
					key, r1.Checksums[i], r2.Checksums[i])
			}
		}
	}
}

func TestKernel1Values(t *testing.T) {
	// Spot check against the formula computed independently.
	k, _ := ByKey("k1")
	res, err := RunSeq(k, 50)
	if err != nil {
		t.Fatal(err)
	}
	x := res.Values["X"]
	for kk := 1; kk <= 50; kk++ {
		want := 0.5 + inA(kk)*(0.2*inB(kk+10)+0.1*inB(kk+11))
		if math.Abs(x[kk]-want) > 1e-12 {
			t.Fatalf("X[%d] = %v, want %v", kk, x[kk], want)
		}
	}
}

func TestKernel5RecurrenceValues(t *testing.T) {
	k, _ := ByKey("k5")
	res, err := RunSeq(k, 20)
	if err != nil {
		t.Fatal(err)
	}
	x := res.Values["X"]
	prev := inA(1)
	for i := 2; i <= 20; i++ {
		want := inSmall(i) * (inA(i) - prev)
		if math.Abs(x[i]-want) > 1e-12 {
			t.Fatalf("X[%d] = %v, want %v", i, x[i], want)
		}
		prev = want
	}
}

func TestKernel11RunningSum(t *testing.T) {
	k, _ := ByKey("k11")
	res, err := RunSeq(k, 30)
	if err != nil {
		t.Fatal(err)
	}
	x := res.Values["X"]
	sum := 0.0
	for kk := 1; kk <= 30; kk++ {
		sum += inA(kk)
		if math.Abs(x[kk]-sum) > 1e-9 {
			t.Fatalf("X[%d] = %v, want %v", kk, x[kk], sum)
		}
	}
}

func TestKernel3InnerProduct(t *testing.T) {
	k, _ := ByKey("k3")
	res, err := RunSeq(k, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 1; i <= 100; i++ {
		want += inA(i) * inB(i)
	}
	got := res.Values["QOUT"][0]
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("inner product = %v, want %v", got, want)
	}
}

func TestKernel24FirstMin(t *testing.T) {
	k, _ := ByKey("k24")
	res, err := RunSeq(k, 200)
	if err != nil {
		t.Fatal(err)
	}
	best, at := math.Inf(1), -1
	for i := 1; i <= 200; i++ {
		v := inA(i*3 + 1)
		if v < best {
			best, at = v, i
		}
	}
	if got := int(res.Values["MOUT"][0]); got != at {
		t.Errorf("first-min index = %d, want %d", got, at)
	}
}

func TestKernel2WriteRange(t *testing.T) {
	// Every cell of ICCG's X is either initialization data or written
	// exactly once, so the output is fully defined.
	k, _ := ByKey("k2")
	n := 256
	res, err := RunSeq(k, n)
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Checksums[0]
	if cs.Defined != cs.Elems {
		t.Errorf("defined cells = %d, want %d (fully defined)", cs.Defined, cs.Elems)
	}
	// The write set is disjoint across passes and roughly n-1 cells.
	writes, _ := iccgPlan(n)
	if len(writes) < n/2 || len(writes) > n {
		t.Errorf("write set size = %d for n=%d", len(writes), n)
	}
}

func TestSeqEngineDetectsDoubleWrite(t *testing.T) {
	bad := &Kernel{
		Key: "bad", Name: "double write", DefaultN: 4, MinN: 1,
		Arrays: func(n int) []Spec {
			return []Spec{{Name: "X", Dims: []int{n + 1}}}
		},
		Run: func(c *Ctx, n int) {
			x := c.A("X")
			x.Set(func() float64 { return 1 }, 1)
			x.Set(func() float64 { return 2 }, 1)
		},
		Outputs: []string{"X"},
	}
	if _, err := RunSeq(bad, 4); err == nil {
		t.Fatal("double write not detected")
	} else if !strings.Contains(err.Error(), "double write") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestSeqEngineDetectsReadBeforeWrite(t *testing.T) {
	bad := &Kernel{
		Key: "rbw", Name: "read before write", DefaultN: 4, MinN: 1,
		Arrays: func(n int) []Spec {
			return []Spec{{Name: "X", Dims: []int{n + 1}}}
		},
		Run: func(c *Ctx, n int) {
			x := c.A("X")
			x.Set(func() float64 { return x.Get(2) }, 1)
		},
		Outputs: []string{"X"},
	}
	if _, err := RunSeq(bad, 4); err == nil {
		t.Fatal("read of undefined cell not detected")
	} else if !strings.Contains(err.Error(), "undefined") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestSeqEngineDetectsOverwriteOfInit(t *testing.T) {
	bad := &Kernel{
		Key: "owi", Name: "overwrite init", DefaultN: 4, MinN: 1,
		Arrays: func(n int) []Spec {
			return []Spec{{Name: "X", Dims: []int{n + 1}, Init: InitAll(inA)}}
		},
		Run: func(c *Ctx, n int) {
			c.A("X").Set(func() float64 { return 1 }, 1)
		},
		Outputs: []string{"X"},
	}
	if _, err := RunSeq(bad, 4); err == nil {
		t.Fatal("overwrite of initialization data not detected")
	}
}

func TestBindValidation(t *testing.T) {
	if _, err := Bind(nil, []Spec{{Name: "A", Dims: []int{0}}}); err == nil {
		t.Error("invalid dims accepted")
	}
	if _, err := Bind(nil, []Spec{
		{Name: "A", Dims: []int{2}},
		{Name: "A", Dims: []int{2}},
	}); err == nil {
		t.Error("duplicate array name accepted")
	}
}

func TestCtxUnknownArrayPanics(t *testing.T) {
	eng, ctx, err := NewSeqEngine([]Spec{{Name: "A", Dims: []int{2}}})
	if err != nil {
		t.Fatal(err)
	}
	_ = eng
	defer func() {
		if recover() == nil {
			t.Error("unknown array lookup did not panic")
		}
	}()
	ctx.A("B")
}

func TestCombineReduce(t *testing.T) {
	if v, i := CombineReduce(OpSum, 2, -1, 3, -1); v != 5 || i != -1 {
		t.Errorf("sum combine = %v,%d", v, i)
	}
	if v, i := CombineReduce(OpMin, 2, 5, 1, 9); v != 1 || i != 9 {
		t.Errorf("min combine = %v,%d", v, i)
	}
	if v, i := CombineReduce(OpMin, 1, 9, 1, 3); v != 1 || i != 3 {
		t.Errorf("min tie combine = %v,%d (want earlier index)", v, i)
	}
	if v, i := CombineReduce(OpMax, 2, 5, 7, 9); v != 7 || i != 9 {
		t.Errorf("max combine = %v,%d", v, i)
	}
	// Identity element: index -1 means "no contribution yet".
	if v, i := CombineReduce(OpMin, 0, -1, 4, 2); v != 4 || i != 2 {
		t.Errorf("min identity combine = %v,%d", v, i)
	}
	if v, i := CombineReduce(OpMax, 9, 3, 0, -1); v != 9 || i != 3 {
		t.Errorf("max identity combine = %v,%d", v, i)
	}
}

func TestPropertyCombineReduceAssociativeWithSerial(t *testing.T) {
	// Property: splitting a reduction at any point and combining partials
	// equals the serial result.
	f := func(raw []float64, cut uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			// NaN ordering is unspecified, and near-MaxFloat64 values
			// overflow differently depending on the grouping — both are
			// properties of IEEE754, not of CombineReduce.
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true
			}
		}
		term := func(i int) float64 { return raw[i] }
		n := len(raw)
		c := int(cut) % (n + 1)
		for _, op := range []Op{OpSum, OpMin, OpMax} {
			whole, wi := reduceSerial(op, 0, n, term)
			v1, i1 := reduceSerial(op, 0, c, term)
			v2, i2 := reduceSerial(op, c, n, term)
			cv, ci := CombineReduce(op, v1, i1, v2, i2)
			if op == OpSum {
				if math.Abs(cv-whole) > 1e-9*(1+math.Abs(whole)) {
					return false
				}
			} else if cv != whole || ci != wi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	if OpSum.String() != "sum" || OpMin.String() != "min" || OpMax.String() != "max" {
		t.Error("op names wrong")
	}
	if Op(9).String() == "" {
		t.Error("unknown op empty")
	}
}

func TestClassString(t *testing.T) {
	want := map[Class]string{MD: "MD", SD: "SD", CD: "CD", RD: "RD", ClassUnknown: "?"}
	for c, w := range want {
		if c.String() != w {
			t.Errorf("class %d = %q", int(c), c.String())
		}
	}
	if Class(9).String() == "" {
		t.Error("unknown class empty")
	}
}

func TestClampN(t *testing.T) {
	k := &Kernel{DefaultN: 100, MinN: 8}
	if k.ClampN(0) != 100 || k.ClampN(-5) != 100 {
		t.Error("default clamp wrong")
	}
	if k.ClampN(3) != 8 {
		t.Error("min clamp wrong")
	}
	if k.ClampN(50) != 50 {
		t.Error("pass-through wrong")
	}
}

func TestInputsBounded(t *testing.T) {
	for i := 0; i < 10000; i++ {
		if v := inA(i); v < 0.25 || v > 0.75 {
			t.Fatalf("inA(%d) = %v out of range", i, v)
		}
		if v := inB(i); v < 0.5 || v > 1.5 {
			t.Fatalf("inB(%d) = %v out of range", i, v)
		}
		if v := inSmall(i); v <= 0 || v > 7.5e-4 {
			t.Fatalf("inSmall(%d) = %v out of range", i, v)
		}
	}
}

func TestPseudoIdxRange(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 5000; i++ {
		v := pseudoIdx(i, 64)
		if v < 1 || v > 64 {
			t.Fatalf("pseudoIdx(%d, 64) = %d", i, v)
		}
		seen[v] = true
	}
	if len(seen) < 60 {
		t.Errorf("pseudoIdx covers only %d of 64 buckets", len(seen))
	}
	if pseudoIdx(5, 0) != 1 {
		t.Error("degenerate mod should return 1")
	}
}

func TestClampF(t *testing.T) {
	if clampF(5, 0, 1) != 1 || clampF(-5, 0, 1) != 0 || clampF(0.5, 0, 1) != 0.5 {
		t.Error("clampF wrong")
	}
}

func TestKernel7EquationOfStateValues(t *testing.T) {
	k, _ := ByKey("k7")
	res, err := RunSeq(k, 40)
	if err != nil {
		t.Fatal(err)
	}
	const q, r, tt = 0.5, 0.2, 0.1
	x := res.Values["X"]
	for kk := 1; kk <= 40; kk++ {
		u := func(j int) float64 { return inA(j) }
		want := u(kk) + r*(inA(kk)+r*inB(kk)) +
			tt*(u(kk+3)+r*(u(kk+2)+r*u(kk+1))+
				tt*(u(kk+6)+q*(u(kk+5)+q*u(kk+4))))
		if math.Abs(x[kk]-want) > 1e-12 {
			t.Fatalf("X[%d] = %v, want %v", kk, x[kk], want)
		}
	}
}

func TestKernel12FirstDifferenceValues(t *testing.T) {
	k, _ := ByKey("k12")
	res, err := RunSeq(k, 50)
	if err != nil {
		t.Fatal(err)
	}
	x := res.Values["X"]
	for kk := 1; kk <= 50; kk++ {
		want := inA(kk+1) - inA(kk)
		if math.Abs(x[kk]-want) > 1e-12 {
			t.Fatalf("X[%d] = %v, want %v", kk, x[kk], want)
		}
	}
}

func TestKernel19TwoSweepValues(t *testing.T) {
	k, _ := ByKey("k19")
	n := 30
	res, err := RunSeq(k, n)
	if err != nil {
		t.Fatal(err)
	}
	// Ascending sweep reference.
	stb5 := inA(0) // S1(0) boundary
	for kk := 1; kk <= n; kk++ {
		b5 := inA(kk) + stb5*inSmall(kk)
		stb5 = b5 - stb5
		if math.Abs(res.Values["B5"][kk]-b5) > 1e-9 {
			t.Fatalf("B5[%d] = %v, want %v", kk, res.Values["B5"][kk], b5)
		}
	}
	// Descending sweep reference.
	stb5 = inA(n + 1) // S2(n+1) boundary
	for i := 1; i <= n; i++ {
		kk := n - i + 1
		b5 := inA(kk) + stb5*inSmall(kk)
		stb5 = b5 - stb5
		if math.Abs(res.Values["B5R"][kk]-b5) > 1e-9 {
			t.Fatalf("B5R[%d] = %v, want %v", kk, res.Values["B5R"][kk], b5)
		}
	}
}

func TestKernel20ConditionalRecurrenceValues(t *testing.T) {
	k, _ := ByKey("k20")
	n := 25
	res, err := RunSeq(k, n)
	if err != nil {
		t.Fatal(err)
	}
	const dk, sLo, tHi = 0.2, 0.1, 5.0
	xx := inA(1) // XX(1) boundary
	for kk := 1; kk <= n; kk++ {
		di := inB(kk) - inSmall(kk)/(xx+dk)
		dn := 0.2
		if di != 0 {
			dn = clampF(inA(kk)/di, sLo, tHi)
		}
		x := ((inB(kk)+inA(kk)*dn)*xx + inA(kk)) / (inB(kk) + inA(kk)*dn)
		if math.Abs(res.Values["X"][kk]-x) > 1e-9 {
			t.Fatalf("X[%d] = %v, want %v", kk, res.Values["X"][kk], x)
		}
		xx = (x-xx)*dn + xx
		if math.Abs(res.Values["XX"][kk+1]-xx) > 1e-9 {
			t.Fatalf("XX[%d] = %v, want %v", kk+1, res.Values["XX"][kk+1], xx)
		}
	}
}

func TestKernel22PlanckianValues(t *testing.T) {
	k, _ := ByKey("k22")
	res, err := RunSeq(k, 40)
	if err != nil {
		t.Fatal(err)
	}
	for kk := 1; kk <= 40; kk++ {
		y := inA(kk) / inB(kk)
		w := inA(kk) / expm1Safe(y)
		if math.Abs(res.Values["Y"][kk]-y) > 1e-12 {
			t.Fatalf("Y[%d] wrong", kk)
		}
		if math.Abs(res.Values["W"][kk]-w) > 1e-12 {
			t.Fatalf("W[%d] wrong", kk)
		}
	}
}

// TestInputGeneratorsMatchExpressions: the table-backed input
// generators return their expressions' values bit for bit, across
// several table growths and for an index below the table.
func TestInputGeneratorsMatchExpressions(t *testing.T) {
	for i := -1; i < 5*minTable; i++ {
		a := 0.5 + 0.25*math.Sin(0.7*float64(i+1))
		b := 1.0 + 0.5*math.Cos(0.3*float64(i+1))
		for _, c := range []struct {
			name      string
			got, want float64
		}{{"inA", inA(i), a}, {"inB", inB(i), b}, {"inSmall", inSmall(i), 1e-3 * a}} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Fatalf("%s(%d) = %v, want %v", c.name, i, c.got, c.want)
			}
		}
	}
}
