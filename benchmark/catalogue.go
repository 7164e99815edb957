package main

import (
	"fmt"

	"repro/internal/kernelreg"
)

// program is one catalogue entry: loop-nest source as a tenant would
// POST it to /v1/compile.
type program struct {
	Name     string
	Source   string
	Convert  bool
	DefaultN int
}

// request is the compile request a given tenant submits for p.
func (p program) request(tenant string) kernelreg.CompileRequest {
	return kernelreg.CompileRequest{Source: p.Source, Convert: p.Convert, DefaultN: p.DefaultN, Tenant: tenant}
}

// tenants are the submitters of the catalogue; 4 tenants x 16 programs
// stays inside the registry's 64-per-tenant quota, so no compile is
// ever refused.
var tenants = []string{"t0", "t1", "t2", "t3"}

// catalogue returns the 16 user programs: four loop-nest families (a
// skewed 1-D stencil, a strided gather, a 2-D five-point nest, and an
// in-place relaxation that needs the single-assignment conversion)
// times four parameter variants. Variant 0 of each family is the
// grid_nscale set, so every family's capture runs the IR tree-walker.
func catalogue() []program {
	var out []program
	for v, skew := range []int{10, 3, 17, 40} {
		out = append(out, program{
			Name:     fmt.Sprintf("skew%d", v),
			DefaultN: 1000,
			Source: fmt.Sprintf(`PROGRAM skew%d
  ARRAY X(n+1) OUTPUT
  ARRAY Y(n+1) INPUT
  ARRAY Z(n+%d) INPUT
  DO k = 1, n
    X(k) = 0.5 + Y(k) + 0.2*Z(k+%d) + 0.1*Z(k+%d)
  END DO
END
`, v, skew+2, skew, skew+1),
		})
	}
	for v, stride := range []int{2, 3, 4, 5} {
		out = append(out, program{
			Name:     fmt.Sprintf("stride%d", v),
			DefaultN: 1000,
			Source: fmt.Sprintf(`PROGRAM stride%d
  ARRAY XO(n+1) OUTPUT
  ARRAY X(%d*n+2) INPUT
  DO k = 1, n
    XO(k) = X(%d*k) + -1*X(%d*k+1)
  END DO
END
`, v, stride, stride, stride),
		})
	}
	for v, coef := range []string{"0.25", "0.5", "0.125", "0.75"} {
		out = append(out, program{
			Name:     fmt.Sprintf("nest%d", v),
			DefaultN: 48,
			Source: fmt.Sprintf(`PROGRAM nest%d
  ARRAY A(n+2, n+2) OUTPUT
  ARRAY B(n+2, n+2) INPUT
  DO i = 1, n
    DO j = 1, n
      A(i,j) = 0.25*B(i-1,j) + 0.25*B(i+1,j) + 0.25*B(i,j-1) + %s*B(i,j+1)
    END DO
  END DO
END
`, v, coef),
		})
	}
	for v, reach := range []int{1, 2, 3, 4} {
		out = append(out, program{
			Name:     fmt.Sprintf("relax%d", v),
			DefaultN: 1000,
			Convert:  true,
			Source: fmt.Sprintf(`PROGRAM relax%d
  ARRAY U(n+%d) INPUT
  DO i = 1, n
    U(i) = 0.5*U(i) + 0.5*U(i+%d)
  END DO
END
`, v, reach+1, reach),
		})
	}
	return out
}

// nscalePrograms picks variant 0 of each family.
func nscalePrograms() []program {
	c := catalogue()
	return []program{c[0], c[4], c[8], c[12]}
}
