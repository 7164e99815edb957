// cost.go — the static resource model behind compile admission. Loop
// bounds in the IR are pure affine expressions of n and enclosing loop
// variables (the parser cannot even spell an indirect bound), so trip
// counts — and from them an executed-operation ceiling and a peak
// array footprint — are computable by interval evaluation without
// running the program. The model is deliberately an over-approximation:
// a kernel admitted at size n is guaranteed under budget; a rejected
// one might have squeaked by, which is the safe direction for a
// service executing strangers' loop nests.
package kernelreg

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// iv is a closed integer interval.
type iv struct{ lo, hi int64 }

// evalRange evaluates an affine expression over interval bindings.
func evalRange(e ir.Expr, env map[string]iv) (iv, error) {
	if !e.IsAffine() {
		return iv{}, fmt.Errorf("non-affine loop bound")
	}
	out := iv{lo: int64(e.Const), hi: int64(e.Const)}
	for v, c := range e.Coeffs {
		if c == 0 {
			continue
		}
		b, ok := env[v]
		if !ok {
			return iv{}, fmt.Errorf("unbound variable %q in loop bound", v)
		}
		lo, hi := int64(c)*b.lo, int64(c)*b.hi
		if lo > hi {
			lo, hi = hi, lo
		}
		out.lo += lo
		out.hi += hi
	}
	return out, nil
}

// satMul multiplies with saturation at a ceiling far below overflow.
func satMul(a, b int64) int64 {
	const ceil = math.MaxInt64 / 4
	if a <= 0 || b <= 0 {
		return 0
	}
	if a > ceil/b {
		return ceil
	}
	return a * b
}

// opsAt returns an upper bound on RHS term evaluations executed at
// problem size n. Each assignment costs 1 + len(terms), scaled by the
// worst-case trip count of every enclosing loop.
func opsAt(stmts []ir.Stmt, n int) (int64, error) {
	env := map[string]iv{"n": {int64(n), int64(n)}}
	return opsWalk(stmts, env, 1)
}

func opsWalk(stmts []ir.Stmt, env map[string]iv, trips int64) (int64, error) {
	var total int64
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Assign:
			total += satMul(trips, int64(1+len(st.RHS.Terms)))
		case *ir.Loop:
			lo, err := evalRange(st.Lo, env)
			if err != nil {
				return 0, err
			}
			hi, err := evalRange(st.Hi, env)
			if err != nil {
				return 0, err
			}
			var t int64
			switch {
			case st.Step > 0:
				t = (hi.hi-lo.lo)/int64(st.Step) + 1
			case st.Step < 0:
				t = (lo.hi-hi.lo)/int64(-st.Step) + 1
			default:
				return 0, fmt.Errorf("loop %s has zero step", st.Var)
			}
			if t < 0 {
				t = 0
			}
			span := iv{lo: min64(lo.lo, hi.lo), hi: max64(lo.hi, hi.hi)}
			saved, had := env[st.Var]
			env[st.Var] = span
			sub, err := opsWalk(st.Body, env, satMul(trips, t))
			if had {
				env[st.Var] = saved
			} else {
				delete(env, st.Var)
			}
			if err != nil {
				return 0, err
			}
			total += sub
		}
		if total < 0 || total > math.MaxInt64/4 {
			total = math.MaxInt64 / 4
		}
	}
	return total, nil
}

// bytesAt returns the total array footprint in bytes at size n
// (float64 elements, degenerate extents clamped to one element, the
// same way the kernel compiler sizes them).
func bytesAt(p *ir.Program, n int) int64 {
	var total int64
	for _, a := range p.Arrays {
		elems := int64(1)
		for _, d := range a.Dims {
			sz := int64(d.Size(n))
			if sz < 1 {
				sz = 1
			}
			elems = satMul(elems, sz)
		}
		total += satMul(elems, 8)
		if total < 0 || total > math.MaxInt64/4 {
			return math.MaxInt64 / 4
		}
	}
	return total
}

// underBudget reports whether the program fits the ops and bytes
// budgets at size n.
func underBudget(p *ir.Program, n int) (bool, error) {
	ops, err := opsAt(p.Body, n)
	if err != nil {
		return false, err
	}
	return ops <= maxOps && bytesAt(p, n) <= maxArrayBytes, nil
}

// deriveMaxN finds the largest admitted problem size: the biggest n in
// [1, maxKernelN] whose estimated cost fits the budgets, located by
// binary search (the invariant "lo fits" is maintained directly, so
// the result is under budget even if cost is not monotone in n).
func deriveMaxN(p *ir.Program) (int, error) {
	ok, err := underBudget(p, 1)
	if err != nil {
		return 0, errf(400, CodeTooExpensive, "kernelreg: %v", err)
	}
	if !ok {
		return 0, errf(400, CodeTooExpensive,
			"kernelreg: program exceeds the ops/bytes budget even at n=1")
	}
	lo, hi := 1, maxKernelN
	if fits, _ := underBudget(p, hi); fits {
		return hi, nil
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if fits, _ := underBudget(p, mid); fits {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
