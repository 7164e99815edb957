package ir

// walker_test.go — the reference interpreter and the differential
// tests that hold the slot-compiled body (body.go) to it. The walker is
// the execution path Program.Kernel used before compilation: a tree
// walk over the Program with a map environment, resolving every name
// on every visit. It shares no code with the compiled body beyond
// Expr.Eval's definition of an affine value, so agreement between the
// two — identical event streams and bit-identical checksums through the
// recording engine — pins the compiler, not a shared helper.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/loops"
	"repro/internal/refstream"
)

// Eval evaluates the expression under a variable binding; reads
// resolves indirections. It is the walker's definition of an affine
// value, and the reference the compiled body's index code is held to.
func (e Expr) Eval(env map[string]int, reads func(array string, idx int) float64) int {
	if e.Indirect != nil {
		idx := e.Indirect.Index.Eval(env, reads)
		return int(reads(e.Indirect.Array, idx))
	}
	v := e.Const
	for name, c := range e.Coeffs {
		b, ok := env[name]
		if !ok {
			panic(fmt.Sprintf("ir: unbound variable %q", name))
		}
		v += c * b
	}
	return v
}

// walkerKernel is p.Kernel with the tree walker as its Run.
func walkerKernel(t testing.TB, p *Program, defaultN int) *loops.Kernel {
	t.Helper()
	k, err := p.Kernel(defaultN)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	wk := *k
	wk.Run = func(c *loops.Ctx, n int) {
		execStmts(c, p.Body, map[string]int{"n": n})
	}
	return &wk
}

func execStmts(c *loops.Ctx, stmts []Stmt, env map[string]int) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *Loop:
			lo := evalAffine(st.Lo, env)
			hi := evalAffine(st.Hi, env)
			if st.Step > 0 {
				for v := lo; v <= hi; v += st.Step {
					env[st.Var] = v
					execStmts(c, st.Body, env)
				}
			} else {
				for v := lo; v >= hi; v += st.Step {
					env[st.Var] = v
					execStmts(c, st.Body, env)
				}
			}
			delete(env, st.Var)
		case *Assign:
			execAssign(c, st, env)
		}
	}
}

// evalAffine evaluates a bound or write subscript, which must be
// affine (Validate enforces this for writes; bounds with indirection
// panic here by design).
func evalAffine(e Expr, env map[string]int) int {
	return e.Eval(env, func(array string, idx int) float64 {
		panic(fmt.Sprintf("ir: indirection through %q in an affine-only position", array))
	})
}

func execAssign(c *loops.Ctx, a *Assign, env map[string]int) {
	lhs := c.A(a.LHS.Array)
	idx := make([]int, len(a.LHS.Index))
	for i, e := range a.LHS.Index {
		idx[i] = evalAffine(e, env)
	}
	rhs := a.RHS
	lhs.Set(func() float64 {
		// Reads — including indirect subscript loads — happen here, on
		// the owning PE only.
		reads := func(array string, i int) float64 {
			return c.A(array).Get(i)
		}
		v := rhs.Bias
		for _, t := range rhs.Terms {
			arr := c.A(t.Read.Array)
			ridx := make([]int, len(t.Read.Index))
			for i, e := range t.Read.Index {
				ridx[i] = e.Eval(env, reads)
			}
			v += t.Coef * arr.Get(ridx...)
		}
		return v
	}, idx...)
}

// requireSameCapture captures p at size n through the walker and
// through the compiled body and requires byte-identical marshalled
// streams (events, array lengths, checksum bits) — or, when the program
// is not executable, the same capture error.
func requireSameCapture(t *testing.T, p *Program, n int) {
	t.Helper()
	compiled, err := p.Kernel(n)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	want, werr := refstream.Capture(walkerKernel(t, p, n), n)
	got, gerr := refstream.Capture(compiled, n)
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("%s n=%d: walker error %v, compiled body error %v", p.Name, n, werr, gerr)
		}
		return
	}
	wb, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	gb, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatalf("%s n=%d: compiled body diverges from the walker (%d vs %d events, checksums %v vs %v)",
			p.Name, n, got.Events(), want.Events(), got.Checksums, want.Checksums)
	}
}

// differentialPrograms is the table the compiled body is held to the
// walker on: every sample (affine, indirect, and the SA-violating ones,
// which must fail identically), plus shapes the samples lack —
// descending and non-unit steps, multi-dimensional arrays with
// triangular bounds, INIT boundary data, nested indirection, and
// expressions that only fault when reached.
func differentialPrograms() []*Program {
	progs := Samples()
	progs = append(progs,
		&Program{
			Name: "descending",
			Arrays: []ArrayDecl{
				{Name: "A", Dims: []Extent{NPlus(2)}, InitLowCount: 1},
				{Name: "B", Dims: []Extent{{Scale: 2, Offset: 3}}, Input: true},
				{Name: "R", Dims: []Extent{NPlus(2)}},
			},
			Body: []Stmt{
				// A forward recurrence, then a descending stride-2 sweep.
				&Loop{Var: "i", Lo: C(1), Hi: N(), Step: 1, Body: []Stmt{
					&Assign{LHS: R("A", V("i")), RHS: RHS{Bias: 0.125, Terms: []Term{
						{Coef: 0.5, Read: R("A", V("i").PlusC(-1))},
						{Coef: 0.25, Read: R("B", V("i").Times(2).PlusC(1))},
					}}},
				}},
				&Loop{Var: "j", Lo: N(), Hi: C(1), Step: -2, Body: []Stmt{
					&Assign{LHS: R("R", V("j")), RHS: RHS{Terms: []Term{
						{Coef: 1, Read: R("A", V("j"))},
						{Coef: -1, Read: R("B", N().Minus(V("j")))},
					}}},
				}},
			},
		},
		&Program{
			Name: "triangle",
			Arrays: []ArrayDecl{
				{Name: "T", Dims: []Extent{NPlus(1), NPlus(2)}},
				{Name: "S", Dims: []Extent{NPlus(2), NPlus(2)}, Input: true},
				{Name: "V", Dims: []Extent{NPlus(1)}, Input: true},
			},
			Body: []Stmt{
				&Loop{Var: "i", Lo: C(1), Hi: N(), Step: 1, Body: []Stmt{
					&Loop{Var: "j", Lo: V("i"), Hi: N(), Step: 1, Body: []Stmt{
						&Assign{LHS: R("T", V("i"), V("j")), RHS: RHS{Terms: []Term{
							{Coef: 0.5, Read: R("S", V("j"), V("i"))},
							{Coef: 0.25, Read: R("S", V("i").PlusC(1), V("j").PlusC(-1))},
							{Coef: 2, Read: R("V", V("j").Minus(V("i")))},
						}}},
					}},
				}},
			},
		},
		&Program{
			Name: "gather2",
			Arrays: []ArrayDecl{
				{Name: "OUT", Dims: []Extent{NPlus(1)}},
				{Name: "G", Dims: []Extent{Fixed(2), Fixed(2)}, Input: true},
				{Name: "IX", Dims: []Extent{NPlus(1)}, Input: true},
				{Name: "IY", Dims: []Extent{Fixed(2)}, Input: true},
			},
			Body: []Stmt{
				// Input data lies in [0.5, 1.5], so every loaded subscript
				// is 0 or 1: G(IX(k), IY(IX(k))) stays in range.
				&Loop{Var: "k", Lo: C(1), Hi: N(), Step: 1, Body: []Stmt{
					&Assign{LHS: R("OUT", V("k")), RHS: RHS{Bias: 1, Terms: []Term{
						{Coef: 3, Read: R("G", Ind("IX", V("k")), Ind("IY", Ind("IX", V("k"))))},
					}}},
				}},
			},
		},
		&Program{
			Name: "outofrange",
			Arrays: []ArrayDecl{
				{Name: "A", Dims: []Extent{NPlus(1)}},
				{Name: "B", Dims: []Extent{NPlus(1)}, Input: true},
			},
			Body: []Stmt{
				&Loop{Var: "i", Lo: C(1), Hi: N(), Step: 1, Body: []Stmt{
					&Assign{LHS: R("A", V("i")), RHS: RHS{Terms: []Term{{Coef: 1, Read: R("B", V("i").PlusC(1))}}}},
				}},
			},
		},
		&Program{
			Name: "indirectbound",
			Arrays: []ArrayDecl{
				{Name: "A", Dims: []Extent{NPlus(1)}},
				{Name: "B", Dims: []Extent{NPlus(1)}, Input: true},
			},
			Body: []Stmt{
				&Loop{Var: "i", Lo: C(1), Hi: Ind("B", Ind("B", C(0))), Step: 1, Body: []Stmt{
					&Assign{LHS: R("A", V("i")), RHS: RHS{Terms: []Term{{Coef: 1, Read: R("B", V("i"))}}}},
				}},
			},
		},
		&Program{
			Name: "zerocoef",
			Arrays: []ArrayDecl{
				{Name: "A", Dims: []Extent{NPlus(1)}},
				{Name: "B", Dims: []Extent{NPlus(1)}, Input: true},
			},
			Body: []Stmt{
				&Loop{Var: "i", Lo: C(1), Hi: N(), Step: 1, Body: []Stmt{
					// A zero coefficient on a bound variable vanishes; on an
					// unbound one it faults when reached.
					&Assign{LHS: R("A", V("i")), RHS: RHS{Terms: []Term{{Coef: 1, Read: R("B", V("i").Plus(N().Times(0)))}}}},
				}},
				&Loop{Var: "j", Lo: V("ghost").Times(0), Hi: C(0), Step: 1, Body: nil},
			},
		},
	)
	return progs
}

// TestCompiledBodyMatchesWalker is the differential table: at several
// problem sizes, including the degenerate n=1, the compiled body and
// the walker must capture the same bytes or fail with the same text.
func TestCompiledBodyMatchesWalker(t *testing.T) {
	for _, p := range differentialPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for _, n := range []int{1, 2, 7, 33} {
				requireSameCapture(t, p, n)
			}
		})
	}
}

// TestWalkerTableExecutes guards the table itself: the clean entries
// must actually run (so the byte comparison compares streams, not two
// equal errors), and the hostile ones must actually fail.
func TestWalkerTableExecutes(t *testing.T) {
	fails := map[string]bool{
		"inplace": true, "carried": true, "gaussseidel": true, "twophase": true,
		"outofrange": true, "indirectbound": true, "zerocoef": true,
	}
	for _, p := range differentialPrograms() {
		_, err := refstream.Capture(walkerKernel(t, p, 7), 7)
		if fails[p.Name] != (err != nil) {
			t.Errorf("%s: capture error %v, want failure=%v", p.Name, err, fails[p.Name])
		}
	}
}
