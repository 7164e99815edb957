package loops_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/loops"
)

// seedExpr is ir.InputSeed's expression, written out independently.
func seedExpr(ordinal, i int) float64 {
	phase := float64(ordinal+1) * 0.61803398875
	return 1.0 + 0.5*math.Sin(0.7*float64(i+1)+phase)
}

// TestInputTablesBounded compiles a kernel whose input arrays, at
// eight ordinals, hold twice the cap on all input tables together, and
// reads their Init functions from eight goroutines at once, two to an
// array order, so several tables grow at once, each under two readers,
// until the cap refuses them. The tables must stay within the cap, and every value —
// from a table or evaluated past the cap — must be the expression's,
// bit for bit. Run it under -race.
func TestInputTablesBounded(t *testing.T) {
	const arrays, goroutines, stride = 8, 8, 61
	n := loops.MaxTableValues / 4 // each array's table doubles to n*2
	var src strings.Builder
	src.WriteString("PROGRAM hostile\n")
	sum := make([]string, arrays)
	for a := range arrays {
		fmt.Fprintf(&src, "  ARRAY X%d(n+1) INPUT\n", a)
		sum[a] = fmt.Sprintf("X%d(i)", a)
	}
	fmt.Fprintf(&src, "  ARRAY Y(n+1) OUTPUT\n  DO i = 1, n\n    Y(i) = %s\n  END DO\nEND\n", strings.Join(sum, "+"))
	p, err := ir.Parse(src.String())
	if err != nil {
		t.Fatal(err)
	}
	k, err := p.Kernel(64)
	if err != nil {
		t.Fatal(err)
	}
	specs := k.Arrays(n)
	if total := arrays * (n + 1); total <= 2*loops.MaxTableValues {
		t.Fatalf("the kernel's inputs hold %d cells, want more than twice the cap %d", total, loops.MaxTableValues)
	}

	check := func(ordinal, i int) error {
		got, _ := specs[ordinal].Init(i)
		if want := seedExpr(ordinal, i); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("X%d(%d) = %v (%#x), want %v (%#x)", ordinal, i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		return nil
	}
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range arrays {
				ordinal := (a + g/2) % arrays
				for i := g; i <= n; i += stride {
					if err := check(ordinal, i); err != nil {
						errs[g] = err
						return
					}
				}
				if loops.TableValues() > loops.MaxTableValues {
					errs[g] = fmt.Errorf("tables hold %d values, past the cap %d", loops.TableValues(), loops.MaxTableValues)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := loops.TableValues(); got > loops.MaxTableValues || got < loops.MaxTableValues/2 {
		t.Errorf("tables hold %d values, want between half the cap and the cap %d", got, loops.MaxTableValues)
	}
	// At most two of the eight arrays fit under the cap, so most cells
	// here are evaluated directly: read one whole array in order.
	for i := 0; i <= n; i++ {
		if err := check(arrays-1, i); err != nil {
			t.Fatal(err)
		}
	}
}
