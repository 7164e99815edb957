// Package ir is a small affine loop intermediate representation for
// Fortran-style scientific loop nests — the program class the paper's
// automatic partitioning targets. It supports:
//
//   - size-parametric array declarations and loop bounds (affine in the
//     problem size n and enclosing loop variables);
//   - affine subscripts plus explicit indirection (the paper's
//     "permutation lookups", §7.1.4);
//   - static single-assignment diagnostics (§5: compilers "perform data
//     path analysis to help programmers adhere to single assignment");
//   - compilation to a runnable loops.Kernel, so IR programs execute on
//     the sequential, counting, and concurrent engines like any
//     Livermore kernel.
//
// The companion packages build on it: internal/convert implements the
// §5 automatic conversion tool (array renaming), and internal/classify
// implements the §7 access-distribution taxonomy both statically (from
// subscript analysis) and dynamically (from simulation).
package ir

import (
	"fmt"
	"sort"
	"strings"
)

// Expr is an affine expression over the problem size "n" and loop
// variables, optionally replaced by an indirection (a value loaded from
// an array at an affine index).
type Expr struct {
	Coeffs map[string]int // variable -> coefficient
	Const  int
	// Indirect, when non-nil, overrides the affine part: the value is
	// int(Array[Index]) at runtime. Indirect subscripts are what make a
	// reference non-affine (class RD).
	Indirect *Indirect
}

// Indirect is a value loaded from a 1-D array at an affine index.
type Indirect struct {
	Array string
	Index Expr
}

// V returns the expression consisting of one variable.
func V(name string) Expr { return Expr{Coeffs: map[string]int{name: 1}} }

// C returns a constant expression.
func C(k int) Expr { return Expr{Const: k} }

// N returns the problem-size variable.
func N() Expr { return V("n") }

// Ind returns an indirect expression Array[idx].
func Ind(array string, idx Expr) Expr {
	return Expr{Indirect: &Indirect{Array: array, Index: idx}}
}

// Plus returns e + o.
func (e Expr) Plus(o Expr) Expr {
	if e.Indirect != nil || o.Indirect != nil {
		panic("ir: arithmetic on indirect expressions is not supported")
	}
	out := Expr{Coeffs: map[string]int{}, Const: e.Const + o.Const}
	for v, c := range e.Coeffs {
		out.Coeffs[v] += c
	}
	for v, c := range o.Coeffs {
		out.Coeffs[v] += c
	}
	return out
}

// PlusC returns e + k.
func (e Expr) PlusC(k int) Expr { return e.Plus(C(k)) }

// Times returns e scaled by k.
func (e Expr) Times(k int) Expr {
	if e.Indirect != nil {
		panic("ir: arithmetic on indirect expressions is not supported")
	}
	out := Expr{Coeffs: map[string]int{}, Const: e.Const * k}
	for v, c := range e.Coeffs {
		out.Coeffs[v] = c * k
	}
	return out
}

// IsAffine reports whether the expression is affine (no indirection).
func (e Expr) IsAffine() bool { return e.Indirect == nil }

// FreeVars returns the variables the expression depends on, sorted.
func (e Expr) FreeVars() []string {
	set := map[string]bool{}
	e.addVars(set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (e Expr) addVars(set map[string]bool) {
	if e.Indirect != nil {
		e.Indirect.Index.addVars(set)
		return
	}
	for v, c := range e.Coeffs {
		if c != 0 {
			set[v] = true
		}
	}
}

// String renders the expression.
func (e Expr) String() string {
	if e.Indirect != nil {
		return fmt.Sprintf("%s(%s)", e.Indirect.Array, e.Indirect.Index)
	}
	var parts []string
	vars := make([]string, 0, len(e.Coeffs))
	for v := range e.Coeffs {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		c := e.Coeffs[v]
		switch {
		case c == 0:
		case c == 1:
			parts = append(parts, v)
		case c == -1:
			parts = append(parts, "-"+v)
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", c, v))
		}
	}
	if e.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", e.Const))
	}
	return strings.ReplaceAll(strings.Join(parts, "+"), "+-", "-")
}

// Ref is an array reference A[e1, ..., ek].
type Ref struct {
	Array string
	Index []Expr
}

// R constructs a reference.
func R(array string, index ...Expr) Ref { return Ref{Array: array, Index: index} }

// String renders the reference.
func (r Ref) String() string {
	parts := make([]string, len(r.Index))
	for i, e := range r.Index {
		parts[i] = e.String()
	}
	return fmt.Sprintf("%s(%s)", r.Array, strings.Join(parts, ","))
}

// Term is one summand of a right-hand side: Coef * Read.
type Term struct {
	Coef float64
	Read Ref
}

// RHS is the value expression of an assignment: Bias + sum of terms.
// Linear combinations are expressive enough for access-pattern studies
// while keeping the IR analyzable.
type RHS struct {
	Bias  float64
	Terms []Term
}

// Reads returns the read references of the RHS, including those buried
// in indirect subscripts.
func (r RHS) Reads() []Ref {
	var out []Ref
	for _, t := range r.Terms {
		out = append(out, t.Read)
		for _, e := range t.Read.Index {
			if e.Indirect != nil {
				out = append(out, Ref{Array: e.Indirect.Array, Index: []Expr{e.Indirect.Index}})
			}
		}
	}
	return out
}

// Stmt is a statement: an Assign or a Loop.
type Stmt interface {
	isStmt()
	render(indent string, b *strings.Builder)
}

// Assign is LHS = RHS.
type Assign struct {
	LHS Ref
	RHS RHS
}

func (*Assign) isStmt() {}

func (a *Assign) render(indent string, b *strings.Builder) {
	var parts []string
	if a.RHS.Bias != 0 || len(a.RHS.Terms) == 0 {
		parts = append(parts, fmt.Sprintf("%g", a.RHS.Bias))
	}
	for _, t := range a.RHS.Terms {
		if t.Coef == 1 {
			parts = append(parts, t.Read.String())
		} else {
			parts = append(parts, fmt.Sprintf("%g*%s", t.Coef, t.Read.String()))
		}
	}
	fmt.Fprintf(b, "%s%s = %s\n", indent, a.LHS, strings.Join(parts, " + "))
}

// Loop is DO Var = Lo, Hi, Step (inclusive bounds, Fortran style).
type Loop struct {
	Var  string
	Lo   Expr
	Hi   Expr
	Step int // nonzero; negative for descending loops
	Body []Stmt
}

func (*Loop) isStmt() {}

func (l *Loop) render(indent string, b *strings.Builder) {
	if l.Step == 1 {
		fmt.Fprintf(b, "%sDO %s = %s, %s\n", indent, l.Var, l.Lo, l.Hi)
	} else {
		fmt.Fprintf(b, "%sDO %s = %s, %s, %d\n", indent, l.Var, l.Lo, l.Hi, l.Step)
	}
	for _, s := range l.Body {
		s.render(indent+"  ", b)
	}
	fmt.Fprintf(b, "%sEND DO\n", indent)
}

// Extent is a size-parametric array extent: Scale*n + Offset.
type Extent struct {
	Scale  int
	Offset int
}

// Fixed returns a constant extent.
func Fixed(k int) Extent { return Extent{Offset: k} }

// NPlus returns the extent n + k.
func NPlus(k int) Extent { return Extent{Scale: 1, Offset: k} }

// Size resolves the extent for a problem size.
func (e Extent) Size(n int) int { return e.Scale*n + e.Offset }

// ArrayDecl declares one array.
type ArrayDecl struct {
	Name  string
	Dims  []Extent
	Input bool // fully initialized before execution
	// InitLow, when set on a non-Input array, pre-defines linear cells
	// [0, InitLowCount) — boundary data for recurrences.
	InitLowCount int
}

// Program is a loop nest over declared arrays.
type Program struct {
	Name   string
	Arrays []ArrayDecl
	Body   []Stmt
}

// String renders the program in Fortran-flavored pseudocode.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PROGRAM %s\n", p.Name)
	for _, a := range p.Arrays {
		dims := make([]string, len(a.Dims))
		for i, d := range a.Dims {
			switch {
			case d.Scale == 0:
				dims[i] = fmt.Sprintf("%d", d.Offset)
			case d.Offset == 0:
				dims[i] = fmt.Sprintf("%d*n", d.Scale)
			default:
				dims[i] = fmt.Sprintf("%d*n%+d", d.Scale, d.Offset)
			}
		}
		role := "OUTPUT"
		if a.Input {
			role = "INPUT"
		}
		fmt.Fprintf(&b, "  ARRAY %s(%s) %s", a.Name, strings.Join(dims, ","), role)
		if !a.Input && a.InitLowCount > 0 {
			// Round-trip fidelity: the parser accepts INIT, so the
			// renderer must emit it or content addressing over the
			// canonical form would conflate distinct programs.
			fmt.Fprintf(&b, " INIT %d", a.InitLowCount)
		}
		b.WriteString("\n")
	}
	for _, s := range p.Body {
		s.render("  ", &b)
	}
	return b.String()
}

// decl returns the declaration of an array.
func (p *Program) decl(name string) (*ArrayDecl, bool) {
	for i := range p.Arrays {
		if p.Arrays[i].Name == name {
			return &p.Arrays[i], true
		}
	}
	return nil, false
}

// Validate checks name binding, ranks, and loop sanity.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("ir: program needs a name")
	}
	seen := map[string]bool{}
	for _, a := range p.Arrays {
		if a.Name == "" || a.Name == "n" {
			return fmt.Errorf("ir: invalid array name %q", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("ir: duplicate array %q", a.Name)
		}
		seen[a.Name] = true
		if len(a.Dims) == 0 {
			return fmt.Errorf("ir: array %q has no dimensions", a.Name)
		}
	}
	bound := map[string]bool{"n": true}
	return p.validateStmts(p.Body, bound)
}

func (p *Program) validateStmts(stmts []Stmt, bound map[string]bool) error {
	for _, s := range stmts {
		switch st := s.(type) {
		case *Loop:
			if st.Step == 0 {
				return fmt.Errorf("ir: loop over %q has zero step", st.Var)
			}
			if bound[st.Var] {
				return fmt.Errorf("ir: loop variable %q shadows an enclosing binding", st.Var)
			}
			if err := p.checkVars(st.Lo, bound); err != nil {
				return err
			}
			if err := p.checkVars(st.Hi, bound); err != nil {
				return err
			}
			bound[st.Var] = true
			if err := p.validateStmts(st.Body, bound); err != nil {
				return err
			}
			delete(bound, st.Var)
		case *Assign:
			if err := p.checkRef(st.LHS, bound, true); err != nil {
				return err
			}
			for _, r := range st.RHS.Reads() {
				if err := p.checkRef(r, bound, false); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("ir: unknown statement type %T", s)
		}
	}
	return nil
}

func (p *Program) checkRef(r Ref, bound map[string]bool, isWrite bool) error {
	d, ok := p.decl(r.Array)
	if !ok {
		return fmt.Errorf("ir: reference to undeclared array %q", r.Array)
	}
	if len(r.Index) != len(d.Dims) {
		return fmt.Errorf("ir: %s has rank %d, referenced with %d subscripts",
			r.Array, len(d.Dims), len(r.Index))
	}
	if isWrite {
		for _, e := range r.Index {
			if e.Indirect != nil {
				return fmt.Errorf("ir: indirect write subscript on %s is not supported", r.Array)
			}
		}
	}
	for _, e := range r.Index {
		if err := p.checkVars(e, bound); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) checkVars(e Expr, bound map[string]bool) error {
	if e.Indirect != nil {
		if _, ok := p.decl(e.Indirect.Array); !ok {
			return fmt.Errorf("ir: indirection through undeclared array %q", e.Indirect.Array)
		}
		return p.checkVars(e.Indirect.Index, bound)
	}
	for _, v := range e.FreeVars() {
		if !bound[v] {
			return fmt.Errorf("ir: unbound variable %q", v)
		}
	}
	return nil
}
