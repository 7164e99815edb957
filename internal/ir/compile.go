package ir

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/loops"
)

// WrittenArrays returns the names of arrays assigned anywhere in the
// program, sorted.
func (p *Program) WrittenArrays() []string {
	set := map[string]bool{}
	var walk func(stmts []Stmt)
	walk = func(stmts []Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *Loop:
				walk(st.Body)
			case *Assign:
				set[st.LHS.Array] = true
			}
		}
	}
	walk(p.Body)
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Assigns returns every assignment in the program in textual order,
// each paired with its enclosing loop variables (outermost first).
func (p *Program) Assigns() []AssignInfo {
	var out []AssignInfo
	var walk func(stmts []Stmt, loops []*Loop)
	walk = func(stmts []Stmt, enclosing []*Loop) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *Loop:
				walk(st.Body, append(enclosing, st))
			case *Assign:
				info := AssignInfo{Assign: st}
				info.Loops = append(info.Loops, enclosing...)
				out = append(out, info)
			}
		}
	}
	walk(p.Body, nil)
	return out
}

// AssignInfo pairs an assignment with its enclosing loops.
type AssignInfo struct {
	Assign *Assign
	Loops  []*Loop
}

// LinearizeRef expresses a reference's row-major linear address as an
// affine form over loop variables for a concrete problem size n:
// lin = sum coeffs[v]*v + konst. affine is false if any subscript is
// indirect.
func (p *Program) LinearizeRef(r Ref, n int) (coeffs map[string]int, konst int, affine bool) {
	d, ok := p.decl(r.Array)
	if !ok {
		return nil, 0, false
	}
	sizes := make([]int, len(d.Dims))
	for i, ext := range d.Dims {
		sizes[i] = ext.Size(n)
	}
	strides := make([]int, len(sizes))
	acc := 1
	for i := len(sizes) - 1; i >= 0; i-- {
		strides[i] = acc
		acc *= sizes[i]
	}
	coeffs = map[string]int{}
	for i, e := range r.Index {
		if e.Indirect != nil {
			return nil, 0, false
		}
		for v, c := range e.Coeffs {
			if v == "n" {
				konst += c * n * strides[i]
				continue
			}
			coeffs[v] += c * strides[i]
		}
		konst += e.Const * strides[i]
	}
	for v, c := range coeffs {
		if c == 0 {
			delete(coeffs, v)
		}
	}
	return coeffs, konst, true
}

// inputSeeds holds one loops.Series per array ordinal, shared by every
// compiled kernel in the process.
var inputSeeds sync.Map // int → *loops.Series

// InputSeed gives each input array a distinct, bounded, deterministic
// value stream; values must be usable as indirection indices into
// arrays of length >= 2, so they stay small and positive. The stream of
// an ordinal is computed once per process (loops.Series).
func InputSeed(ordinal int) func(i int) float64 {
	s, ok := inputSeeds.Load(ordinal)
	if !ok {
		phase := float64(ordinal+1) * 0.61803398875
		s, _ = inputSeeds.LoadOrStore(ordinal, loops.NewSeries(func(i int) float64 {
			return 1.0 + 0.5*math.Sin(0.7*float64(i+1)+phase)
		}))
	}
	return s.(*loops.Series).At
}

// Kernel compiles the program into a runnable loops.Kernel: names are
// resolved to frame slots and array ordinals once, here (see body.go),
// and every execution runs the compiled body. Input arrays are filled
// with deterministic data; every written array is an output. The
// kernel's problem size parameter binds the IR variable n.
func (p *Program) Kernel(defaultN int) (*loops.Kernel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if defaultN < 1 {
		defaultN = 1
	}
	outputs := p.WrittenArrays()
	if len(outputs) == 0 {
		return nil, fmt.Errorf("ir: program %s writes no arrays", p.Name)
	}
	decls := p.Arrays
	body := p.compileBody()
	return &loops.Kernel{
		ID: 0, Key: "ir:" + p.Name, Name: p.Name,
		DefaultN: defaultN, MinN: 1,
		Notes: "compiled from the affine loop IR",
		Arrays: func(n int) []loops.Spec {
			specs := make([]loops.Spec, len(decls))
			for i, d := range decls {
				dims := make([]int, len(d.Dims))
				for j, ext := range d.Dims {
					sz := ext.Size(n)
					if sz < 1 {
						sz = 1
					}
					dims[j] = sz
				}
				spec := loops.Spec{Name: d.Name, Dims: dims}
				if d.Input {
					spec.Init = loops.InitAll(InputSeed(i))
				} else if d.InitLowCount > 0 {
					spec.Init = loops.InitRange(0, d.InitLowCount, InputSeed(i))
				}
				specs[i] = spec
			}
			return specs
		},
		Run:     body.run,
		Outputs: outputs,
	}, nil
}
