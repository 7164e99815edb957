package ir

// fuzz_test.go — native fuzz targets for the IR front end, run with
// -fuzz in CI (30s budget) and as plain regression tests over the
// seed corpus otherwise. The parser is the trust boundary of
// POST /v1/compile: arbitrary bytes must never panic it, and whatever
// it accepts must round-trip through the canonical rendering — the
// fixed point the kernel registry's content addressing stands on.

import (
	"strings"
	"testing"

	"repro/internal/loops"
)

// FuzzParse throws arbitrary source at the parser. Accepted programs
// must satisfy the canonicalization contract: the rendered form
// re-parses, renders identically (render∘parse is a fixed point on
// rendered programs), and the SA checker runs without panicking.
func FuzzParse(f *testing.F) {
	for _, p := range Samples() {
		f.Add(p.String() + "END\n")
	}
	f.Add("PROGRAM x\n  ARRAY A(n+1) OUTPUT\n  DO i = 1, n\n    A(i) = 1\n  END DO\nEND\n")
	f.Add("PROGRAM broken\n  NOT A STATEMENT\nEND\n")
	f.Add("DO DO DO")
	f.Add("")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		_ = p.CheckSA()
		rendered := p.String() + "END\n"
		p2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendered form does not re-parse: %v\n%s", err, rendered)
		}
		if again := p2.String() + "END\n"; again != rendered {
			t.Fatalf("render is not a parse fixed point:\n%q\n%q", rendered, again)
		}
	})
}

// FuzzAffineProgramRuns property-tests the generated-program pipeline:
// every FuzzAffineProgram output is SA-clean by construction, compiles
// to a runnable kernel, survives the sequential reference engine, and
// captures byte-identically through the slot-compiled body and the
// reference tree walker (walker_test.go).
func FuzzAffineProgramRuns(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{7, 3, 200, 41, 0})
	f.Add([]byte(strings.Repeat("\xff", 16)))
	f.Fuzz(func(t *testing.T, seed []byte) {
		p := FuzzAffineProgram(seed)
		if viol := Violations(p.CheckSA()); len(viol) != 0 {
			t.Fatalf("generated program has SA violations: %v", viol)
		}
		k, err := p.Kernel(8)
		if err != nil {
			t.Fatalf("generated program does not compile: %v", err)
		}
		if _, err := loops.RunSeq(k, 8); err != nil {
			t.Fatalf("generated program fails the reference engine: %v", err)
		}
		requireSameCapture(t, p, 8)
		requireSameCapture(t, p, 1+len(seed)%40)
	})
}
