// Package classify reproduces the paper's §7.1 access-distribution
// taxonomy — Matched (MD), Skewed (SD), Cyclic (CD), Random (RD) — in
// two independent ways:
//
//   - statically, from affine subscript analysis of an IR program: a
//     read whose linearized subscript equals the write's is matched;
//     equal variable coefficients with a constant offset is skewed;
//     differing coefficients (the read index moving at a different
//     rate, or striding another dimension) is cyclic; indirection is
//     random;
//   - dynamically, from counting-simulation evidence at several PE
//     counts, using the paper's own observed signatures: MD has zero
//     remote reads; RD stays highly remote despite the cache; CD is
//     highly remote without a cache or shows the total-cache-grows
//     decline; everything else with boundary-limited remote reads is
//     SD.
package classify

import (
	"context"
	"fmt"

	"repro/internal/ir"
	"repro/internal/loops"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// StmtClass is the classification of one assignment.
type StmtClass struct {
	Stmt  string
	Class loops.Class
}

// Static classifies an IR program by subscript analysis at problem
// size n. The program class is the worst statement class
// (MD < SD < CD < RD).
func Static(p *ir.Program, n int) (loops.Class, []StmtClass, error) {
	if err := p.Validate(); err != nil {
		return loops.ClassUnknown, nil, err
	}
	worst := loops.MD
	var per []StmtClass
	for _, info := range p.Assigns() {
		cls := classifyAssign(p, info.Assign, n)
		per = append(per, StmtClass{Stmt: renderAssign(info.Assign), Class: cls})
		if cls > worst {
			worst = cls
		}
	}
	if len(per) == 0 {
		return loops.ClassUnknown, nil, fmt.Errorf("classify: program %s has no assignments", p.Name)
	}
	return worst, per, nil
}

func renderAssign(a *ir.Assign) string {
	return a.LHS.String()
}

func classifyAssign(p *ir.Program, a *ir.Assign, n int) loops.Class {
	wCoeffs, wConst, wAffine := p.LinearizeRef(a.LHS, n)
	if !wAffine {
		return loops.RD
	}
	cls := loops.MD
	for _, r := range a.RHS.Reads() {
		rc := classifyRead(p, wCoeffs, wConst, r, n)
		if rc > cls {
			cls = rc
		}
	}
	return cls
}

func classifyRead(p *ir.Program, wCoeffs map[string]int, wConst int, r ir.Ref, n int) loops.Class {
	rCoeffs, rConst, affine := p.LinearizeRef(r, n)
	if !affine {
		return loops.RD // indirection: "effectively random page accesses"
	}
	if coeffsEqual(wCoeffs, rCoeffs) {
		if rConst == wConst {
			return loops.MD // identical subscripts throughout the loop
		}
		return loops.SD // constant skew
	}
	// The read index moves at a different rate than the write index
	// (ICCG's k vs i) or walks a different dimension (2-D arrays):
	// a fixed set of pages visited in a cyclic order.
	return loops.CD
}

func coeffsEqual(a, b map[string]int) bool {
	for v, c := range a {
		if c != 0 && b[v] != c {
			return false
		}
	}
	for v, c := range b {
		if c != 0 && a[v] != c {
			return false
		}
	}
	return true
}

// Evidence is the dynamic classifier's measurement set.
type Evidence struct {
	NoCache16 float64 // % remote, 16 PEs, no cache
	Cached8   float64 // % remote, 8 PEs, 256-element cache
	Cached16  float64
	Cached64  float64
}

// Thresholds for the dynamic decision rules; exported for tests and
// sensitivity studies. Values follow the paper's observed bands: MD is
// exactly zero; RD "can be rather high" (>15% cached); CD "jumps from
// page to page and most are remote" without a cache (>40%); SD is
// boundary-limited.
const (
	mdMaxNoCache  = 0.5
	rdMinCached   = 15.0
	cdMinNoCache  = 40.0
	cdDeclineFrac = 0.6 // cached64 < 0.6*cached8 counts as the CD decline
)

// Dynamic classifies a kernel by running the counting simulator at
// page size 32 with the paper's cache and applying the decision rules.
func Dynamic(k *loops.Kernel, n int) (loops.Class, Evidence, error) {
	var ev Evidence
	run := func(npe int, cached bool) (float64, error) {
		cfg := sim.PaperConfig(npe, 32)
		if !cached {
			cfg.CacheElems = 0
		}
		res, err := sim.Run(k, n, cfg)
		if err != nil {
			return 0, err
		}
		return res.RemotePercent(), nil
	}
	var err error
	if ev.NoCache16, err = run(16, false); err != nil {
		return loops.ClassUnknown, ev, err
	}
	if ev.Cached8, err = run(8, true); err != nil {
		return loops.ClassUnknown, ev, err
	}
	if ev.Cached16, err = run(16, true); err != nil {
		return loops.ClassUnknown, ev, err
	}
	if ev.Cached64, err = run(64, true); err != nil {
		return loops.ClassUnknown, ev, err
	}
	return Decide(ev), ev, nil
}

// Decide applies the classification rules to measured evidence.
func Decide(ev Evidence) loops.Class {
	switch {
	case ev.NoCache16 <= mdMaxNoCache:
		return loops.MD
	case ev.Cached16 >= rdMinCached:
		return loops.RD
	case ev.NoCache16 >= cdMinNoCache:
		return loops.CD
	case ev.Cached64 < cdDeclineFrac*ev.Cached8:
		return loops.CD
	default:
		return loops.SD
	}
}

// Recommend implements the paper's §9 proposal of "programmer- or
// compiler-selectable partitioning schemes ... based on some analysis
// of the access behavior": boundary-limited classes (MD/SD) and
// neighbour-stencil cyclic loops keep their locality under the
// division (block) scheme, which places adjacent pages on the same PE;
// random distributions gain nothing from contiguity and keep the
// modulo default, which spreads hot regions.
func Recommend(class loops.Class) partition.Kind {
	switch class {
	case loops.MD, loops.SD, loops.CD:
		return partition.KindBlock
	default:
		return partition.KindModulo
	}
}

// Report is one row of the classification table (the paper's §7.1
// taxonomy over its studied loops).
type Report struct {
	Key      string
	Name     string
	Paper    loops.Class // class the paper assigns (ClassUnknown if unstated)
	Measured loops.Class
	Evidence Evidence
}

// Kernels classifies a set of kernels dynamically. The kernels are
// classified concurrently over the sweep engine's bounded worker pool;
// reports come back in input order.
func Kernels(ks []*loops.Kernel, n int) ([]Report, error) {
	return sweep.Map(context.Background(), ks,
		func(_ context.Context, _ int, k *loops.Kernel) (Report, error) {
			size := n
			if size <= 0 {
				size = k.DefaultN
			}
			cls, ev, err := Dynamic(k, size)
			if err != nil {
				return Report{}, fmt.Errorf("classify: %s: %w", k.Key, err)
			}
			return Report{
				Key: k.Key, Name: k.Name, Paper: k.Class, Measured: cls, Evidence: ev,
			}, nil
		})
}
