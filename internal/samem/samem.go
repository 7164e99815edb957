// Package samem implements the single-assignment tagged memory of Bic,
// Nagel & Roy (1989) §3: every cell is either undefined or defined, a
// defined cell can never be written again (a second write is a runtime
// error), and a read of an undefined cell is queued and resumed by the
// unique future write ("write-before-read enforced by hardware", as in
// HEP full/empty bits and dataflow I-structures).
//
// Two granularities are provided:
//
//   - Page: a concurrent page of cells with deferred-read queues, used by
//     the execution engine (internal/machine) as the unit of local storage
//     and of remote transfer.
//   - Tracker: a lightweight write-once bitmap used by the counting
//     simulator and the sequential reference engine to validate the single
//     assignment property without paying for queues.
package samem

import (
	"fmt"
	"sync"
)

// DoubleWriteError reports a violation of the single assignment rule:
// "writing more than once results in a runtime error" (§3).
type DoubleWriteError struct {
	Array string // array name, if known
	Index int    // linear element index within the array
}

// Error implements the error interface.
func (e *DoubleWriteError) Error() string {
	if e.Array == "" {
		return fmt.Sprintf("samem: double write to element %d", e.Index)
	}
	return fmt.Sprintf("samem: double write to %s[%d]", e.Array, e.Index)
}

// Page is one page of single-assignment cells. It is safe for concurrent
// use: the owning PE writes cells, while any PE (via the network layer)
// may read or request a snapshot. Reads of undefined cells register a
// waiter channel that the eventual write completes.
type Page struct {
	mu      sync.Mutex
	vals    []float64
	defined []bool
	waiters map[int][]chan<- float64

	array string // for error reporting
	base  int    // linear index of cell 0 within the array
}

// NewPage allocates an undefined page of n cells belonging to the named
// array at linear base offset base.
func NewPage(array string, base, n int) *Page {
	return &Page{
		vals:    make([]float64, n),
		defined: make([]bool, n),
		array:   array,
		base:    base,
	}
}

// Base returns the linear index of the page's first cell.
func (p *Page) Base() int { return p.base }

// Write defines cell off (page-relative). It returns a *DoubleWriteError
// if the cell is already defined, and otherwise wakes every deferred
// reader of the cell.
func (p *Page) Write(off int, v float64) error {
	p.mu.Lock()
	if p.defined[off] {
		p.mu.Unlock()
		return &DoubleWriteError{Array: p.array, Index: p.base + off}
	}
	p.vals[off] = v
	p.defined[off] = true
	ws := p.waiters[off]
	if ws != nil {
		delete(p.waiters, off)
	}
	p.mu.Unlock()
	// Waiter channels are buffered (capacity >= 1) by contract, so these
	// sends cannot block the writer.
	for _, ch := range ws {
		ch <- v
	}
	return nil
}

// TryRead returns the value of cell off and whether it is defined.
func (p *Page) TryRead(off int) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.vals[off], p.defined[off]
}

// ReadOrWait returns the cell value immediately if defined. Otherwise it
// registers ch as a deferred reader (the paper's queued read request) and
// reports ok=false; the eventual Write will deliver the value on ch.
// ch must have capacity >= 1 so the writer never blocks.
func (p *Page) ReadOrWait(off int, ch chan<- float64) (v float64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.defined[off] {
		return p.vals[off], true
	}
	if p.waiters == nil {
		p.waiters = make(map[int][]chan<- float64)
	}
	p.waiters[off] = append(p.waiters[off], ch)
	return 0, false
}

// Snapshot copies the page's current values and defined bits. This is the
// payload of a remote page fetch: under single assignment the defined
// cells of a snapshot can never change value, so the snapshot may be
// cached indefinitely; only cells undefined at snapshot time may require
// a re-fetch (§4, partially filled pages).
func (p *Page) Snapshot() (vals []float64, defined []bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	vals = make([]float64, len(p.vals))
	defined = make([]bool, len(p.defined))
	copy(vals, p.vals)
	copy(defined, p.defined)
	return vals, defined
}

// Fill defines cell off with initialization data, bypassing no rules:
// it is a plain Write intended for the pre-execution phase ("prior to
// execution, an array is either undefined or filled with initialization
// data", §3).
func (p *Page) Fill(off int, v float64) error { return p.Write(off, v) }

// Tracker is a write-once bitmap across an entire array's linear space.
// It validates the single assignment property at counting-simulation
// speed, without per-cell queues or locks. Not safe for concurrent use.
type Tracker struct {
	array   string
	written []bool
}

// NewTracker returns a Tracker for n elements of the named array.
func NewTracker(array string, n int) *Tracker {
	return &Tracker{array: array, written: make([]bool, n)}
}

// Mark records a write to linear index i, returning a *DoubleWriteError
// if i was already written.
func (t *Tracker) Mark(i int) error {
	if t.written[i] {
		return &DoubleWriteError{Array: t.array, Index: i}
	}
	t.written[i] = true
	return nil
}
