package ir

import (
	"fmt"
	"sort"

	"repro/internal/loops"
)

// body.go — the slot-compiled form of a program body. Program.Kernel
// resolves every name once: the problem size and the loop variables
// become indices into one integer frame, array names become declaration
// ordinals (the order Kernel.Arrays declares them in, hence the order
// of loops.Ctx.Arrays), and each affine expression becomes a list of
// (slot, coefficient) pairs plus a constant. Executing the compiled
// body touches no map and allocates nothing per statement; subscripts
// still go through Arr.Set/Arr.Get, so every dimension is bounds
// checked by Dims.Linear, and right-hand sides are summed in source
// order.

// cexpr is a compiled subscript or loop bound.
type cexpr struct {
	konst int
	terms []cterm
	ind   *cindirect // non-nil: the value is loaded through an array
	fault string     // non-empty: evaluating panics with this message
}

// cterm is one coef*variable summand of an affine cexpr.
type cterm struct{ slot, coef int }

// cindirect is int(array[index]): a subscript loaded at run time.
type cindirect struct {
	array int
	index cexpr
}

// cstmt is one compiled statement: exactly one field is set.
type cstmt struct {
	loop   *cloop
	assign *cassign
}

type cloop struct {
	slot   int // frame slot of the loop variable
	lo, hi cexpr
	step   int
	body   []cstmt
}

type cassign struct {
	lhs   int // array ordinal
	index []cexpr
	bias  float64
	terms []cread
}

// cread is one coef*array(index...) summand of a right-hand side.
type cread struct {
	coef  float64
	array int
	index []cexpr
}

// cbody is a compiled program body, immutable and shared by every run.
type cbody struct {
	stmts []cstmt
	slots int // frame size: slot 0 is n, then one slot per loop
	rank  int // widest subscript list, sizing the subscript buffers
}

// compiler carries name resolution through one compileBody walk.
type compiler struct {
	arrays map[string]int // array name -> declaration ordinal
	scope  map[string]int // variable in scope -> frame slot
	out    *cbody
}

// compileBody compiles a validated program's statements.
func (p *Program) compileBody() *cbody {
	c := &compiler{
		arrays: make(map[string]int, len(p.Arrays)),
		scope:  map[string]int{"n": 0},
		out:    &cbody{slots: 1},
	}
	for i, d := range p.Arrays {
		c.arrays[d.Name] = i
	}
	c.out.stmts = c.stmts(p.Body)
	return c.out
}

func (c *compiler) stmts(in []Stmt) []cstmt {
	out := make([]cstmt, 0, len(in))
	for _, s := range in {
		switch st := s.(type) {
		case *Loop:
			l := &cloop{slot: c.out.slots, lo: c.affineOnly(st.Lo), hi: c.affineOnly(st.Hi), step: st.Step}
			c.out.slots++
			c.scope[st.Var] = l.slot
			l.body = c.stmts(st.Body)
			delete(c.scope, st.Var)
			out = append(out, cstmt{loop: l})
		case *Assign:
			a := &cassign{lhs: c.arrays[st.LHS.Array], bias: st.RHS.Bias, index: c.exprs(st.LHS.Index, c.affineOnly)}
			for _, t := range st.RHS.Terms {
				a.terms = append(a.terms, cread{coef: t.Coef, array: c.arrays[t.Read.Array], index: c.exprs(t.Read.Index, c.expr)})
			}
			out = append(out, cstmt{assign: a})
		}
	}
	return out
}

// exprs compiles one reference's subscript list.
func (c *compiler) exprs(in []Expr, compile func(Expr) cexpr) []cexpr {
	if len(in) > c.out.rank {
		c.out.rank = len(in)
	}
	out := make([]cexpr, len(in))
	for i, e := range in {
		out[i] = compile(e)
	}
	return out
}

func (c *compiler) expr(e Expr) cexpr {
	if e.Indirect != nil {
		return cexpr{ind: &cindirect{array: c.arrays[e.Indirect.Array], index: c.expr(e.Indirect.Index)}}
	}
	out := cexpr{konst: e.Const}
	names := make([]string, 0, len(e.Coeffs))
	for name := range e.Coeffs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		slot, ok := c.scope[name]
		if !ok {
			// Validate only checks variables with a nonzero coefficient;
			// like Expr.Eval, the compiled form faults on the rest when
			// (and only when) the expression is reached.
			return cexpr{fault: fmt.Sprintf("ir: unbound variable %q", name)}
		}
		if coef := e.Coeffs[name]; coef != 0 {
			out.terms = append(out.terms, cterm{slot: slot, coef: coef})
		}
	}
	return out
}

// affineOnly compiles a loop bound or write subscript. Validate admits
// indirection in bounds; reaching one at run time is a fault naming the
// innermost array, as evaluation would have got that far.
func (c *compiler) affineOnly(e Expr) cexpr {
	if e.Indirect == nil {
		return c.expr(e)
	}
	if inner := c.affineOnly(e.Indirect.Index); inner.fault != "" {
		return inner
	}
	return cexpr{fault: fmt.Sprintf("ir: indirection through %q in an affine-only position", e.Indirect.Array)}
}

// frame is the mutable state of one execution of a cbody.
type frame struct {
	vars []int        // slot 0 = n, then the loop variables
	lhs  []int        // write-subscript buffer
	sub  []int        // read-subscript buffer
	arrs []*loops.Arr // by declaration ordinal
	cur  *cassign     // the assignment rhs evaluates
	rhs  func() float64
}

// run executes the body as a loops.Kernel's Run function.
func (b *cbody) run(c *loops.Ctx, n int) {
	ints := make([]int, b.slots+2*b.rank)
	f := &frame{
		vars: ints[:b.slots],
		lhs:  ints[b.slots : b.slots+b.rank],
		sub:  ints[b.slots+b.rank:],
		arrs: c.Arrays(),
	}
	f.vars[0] = n
	f.rhs = f.evalRHS
	f.exec(b.stmts)
}

func (f *frame) exec(stmts []cstmt) {
	for i := range stmts {
		if l := stmts[i].loop; l != nil {
			lo, hi := f.eval(&l.lo), f.eval(&l.hi)
			if l.step > 0 {
				for v := lo; v <= hi; v += l.step {
					f.vars[l.slot] = v
					f.exec(l.body)
				}
			} else {
				for v := lo; v >= hi; v += l.step {
					f.vars[l.slot] = v
					f.exec(l.body)
				}
			}
			continue
		}
		a := stmts[i].assign
		idx := f.lhs[:len(a.index)]
		for j := range a.index {
			idx[j] = f.eval(&a.index[j])
		}
		f.cur = a
		f.arrs[a.lhs].Set(f.rhs, idx...)
	}
}

// evalRHS evaluates the current assignment's right-hand side. Reads —
// including indirect subscript loads — happen here, on the owning PE
// only, term by term in source order.
func (f *frame) evalRHS() float64 {
	a := f.cur
	v := a.bias
	for i := range a.terms {
		t := &a.terms[i]
		sub := f.sub[:len(t.index)]
		for j := range t.index {
			sub[j] = f.eval(&t.index[j])
		}
		v += t.coef * f.arrs[t.array].Get(sub...)
	}
	return v
}

func (f *frame) eval(e *cexpr) int {
	if e.ind != nil {
		return int(f.arrs[e.ind.array].Get(f.eval(&e.ind.index)))
	}
	if e.fault != "" {
		panic(e.fault)
	}
	v := e.konst
	for _, t := range e.terms {
		v += t.coef * f.vars[t.slot]
	}
	return v
}
