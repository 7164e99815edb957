package sim

import (
	"fmt"

	"repro/internal/loops"
	"repro/internal/samem"
)

// Opcodes of a recorded reference stream. The stream is a flat state
// machine: OpAssign and OpTerm open a classification context (the owner
// of the named element), OpEnd and OpEndReduce close it, and OpRead
// events classify in whichever context is open — none meaning a
// replicated control read, executed by every PE.
const (
	OpRead      = 0 // read a[lin] in the current context
	OpAssign    = 1 // open an assignment targeting a[lin]; charges the write to its owner
	OpEnd       = 2 // close the open assignment (no payload)
	OpTerm      = 3 // open reduction term lin, driven by array a
	OpEndReduce = 4 // close the reduction driven by array a: account host collection
)

// Recording is what one recorded execution leaves behind: the reference
// stream as two fixed-width columns, one entry per event, plus the
// array lengths the element indices are relative to and the output
// checksums. Which accesses occur, in what program order and in which
// structural context depends only on (kernel, n), so internal/refstream
// classifies the same Recording under any machine configuration.
type Recording struct {
	Heads []uint32 // per event: arrayID<<3 | opcode
	Lins  []int32  // per event: element index (0 when the opcode carries none)

	ArrayLens []int            // element count per array ID
	Checksums []loops.ArraySum // one per output array, as Run reports them
}

// recorder is the recording engine: the fourth loops.Engine. It does
// the value work and the single-assignment checks of the counting
// engine — same slabs, same error text, same reduction folding — and
// nothing else: no page geometry, no owner table, no caches, no per-PE
// counters. Every access is appended to the event columns, which the
// owning Scratch keeps between recordings.
type recorder struct {
	valBase []int // views of the counting engine's slabs, set per Record
	vals    []float64
	defined []bool

	heads []uint32
	lins  []int32

	open bool // an assignment or reduction term is open
	err  error
}

func (r *recorder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// emit appends one event: opcode op on array id with element index lin.
func (r *recorder) emit(op uint32, id, lin int) {
	r.heads = append(r.heads, uint32(id)<<3|op)
	r.lins = append(r.lins, int32(lin))
}

// BeginAssign implements loops.Engine.
func (r *recorder) BeginAssign(a *loops.Arr, lin int) bool {
	if r.open {
		r.fail(fmt.Errorf("sim: nested assignment on %s[%d]", a.Name, lin))
		return false
	}
	r.open = true
	r.emit(OpAssign, a.ID, lin)
	return true
}

// FinishAssign implements loops.Engine, with the counting engine's
// write-once check.
func (r *recorder) FinishAssign(a *loops.Arr, lin int, v float64) {
	r.open = false
	at := r.valBase[a.ID] + lin
	if r.defined[at] {
		r.fail(&samem.DoubleWriteError{Array: a.Name, Index: lin})
		return
	}
	r.vals[at] = v
	r.defined[at] = true
	r.emit(OpEnd, 0, 0)
}

// Read implements loops.Engine.
func (r *recorder) Read(a *loops.Arr, lin int) float64 {
	at := r.valBase[a.ID] + lin
	if !r.defined[at] {
		r.fail(fmt.Errorf("sim: read of undefined %s[%d]", a.Name, lin))
		return 0
	}
	r.emit(OpRead, a.ID, lin)
	return r.vals[at]
}

// Reduce implements loops.Engine: every term is evaluated in index
// order inside its own context, and the host collection is left to
// whoever classifies the stream.
func (r *recorder) Reduce(op loops.Op, driver *loops.Arr, lo, hi int, term func(i int) float64) (float64, int) {
	if r.open {
		r.fail(fmt.Errorf("sim: reduction inside an assignment"))
		return 0, -1
	}
	acc, at := 0.0, -1
	for i := lo; i < hi; i++ {
		r.emit(OpTerm, driver.ID, i)
		r.open = true
		v := term(i)
		r.open = false
		acc, at = foldTerm(op, i == lo, acc, at, v, i)
	}
	r.emit(OpEndReduce, driver.ID, 0)
	return acc, at
}

// Record executes kernel k at problem size n once on the recording
// engine, validating single assignment exactly as Run does. The
// Recording's event columns are views of Scratch-owned buffers, valid
// until the next Record; everything else in it is freshly allocated.
// Record shares Run's bound-context memo.
func (s *Scratch) Record(k *loops.Kernel, n int) (Recording, error) {
	n = k.ClampN(n)
	r := &s.rec
	ctx, err := s.load(k, n, r)
	if err != nil {
		return Recording{}, err
	}
	r.valBase, r.vals, r.defined = s.e.valBase, s.e.vals, s.e.defined
	r.heads, r.lins = r.heads[:0], r.lins[:0]
	r.open, r.err = false, nil

	k.Run(ctx, n)
	if r.err != nil {
		return Recording{}, fmt.Errorf("sim: %s: %w", k.Key, r.err)
	}
	rec := Recording{
		Heads:     r.heads,
		Lins:      r.lins,
		ArrayLens: make([]int, len(r.valBase)),
		Checksums: s.checksums(k),
	}
	for i, a := range ctx.Arrays() {
		rec.ArrayLens[i] = a.Len()
	}
	return rec, nil
}
