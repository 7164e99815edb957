// Package loops defines the workload layer of the reproduction: the
// Livermore Loops expressed once, in single-assignment form, against an
// abstract execution engine.
//
// A Kernel declares its arrays (with initialization data, §3: "prior to
// execution, an array is either undefined or filled with initialization
// data") and a Run body. The body performs assignments through Arr.Set
// with the right-hand side as a closure; an engine that implements
// owner-computes screening (§2/§3: "the right hand side of the
// assignment is evaluated only for a given PE's subranges") simply skips
// the closure when the executing PE does not own the target element.
// Reads inside the closure are attributed to the owning PE and
// classified local / cached / remote.
//
// Four engines implement this interface:
//
//   - the sequential reference engine in this package (ground truth for
//     values, single-assignment validation);
//   - internal/sim's counting engine, the access-counting simulator
//     replicating the paper's measurement methodology;
//   - internal/sim's recording engine, which executes a kernel once
//     with no machine model at all and writes down its reference stream
//     for internal/refstream to classify under any configuration;
//   - internal/machine, a concurrent engine with one goroutine per PE
//     and real message passing.
package loops

import (
	"fmt"

	"repro/internal/partition"
)

// Op selects a reduction operator for Engine.Reduce.
type Op int

// Reduction operators. Min and Max track the first index attaining the
// extremum, for the argmin-style kernels (K24).
const (
	OpSum Op = iota
	OpMin
	OpMax
)

// String returns the operator name.
func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Engine is the contract between kernels and execution back ends.
// Kernels never call it directly; they go through Arr and Ctx.
type Engine interface {
	// BeginAssign announces an assignment targeting linear element lin of
	// array a. It returns true if the right-hand side should be evaluated
	// in this context (owner-computes screening), false to skip.
	BeginAssign(a *Arr, lin int) bool
	// FinishAssign delivers the evaluated right-hand side value for the
	// assignment opened by the matching BeginAssign.
	FinishAssign(a *Arr, lin int, v float64)
	// Read returns the value of linear element lin of array a. Inside an
	// assignment the read is attributed to the assignment's owner;
	// outside, it is a control read executed by every PE.
	Read(a *Arr, lin int) float64
	// Reduce models the host-processor vector-to-scalar collection (§9):
	// each PE evaluates term(i) for the iterations whose driver element i
	// it owns, partial results travel to the host PE, and the combined
	// scalar is broadcast back. It returns the combined value and, for
	// OpMin/OpMax, the first index attaining it (-1 for OpSum).
	Reduce(op Op, driver *Arr, lo, hi int, term func(i int) float64) (float64, int)
}

// Spec declares one array of a kernel.
type Spec struct {
	Name string
	Dims []int
	// Init supplies initialization data: for linear index i it returns
	// the initial value and whether the cell is pre-defined. A nil Init
	// means the array starts fully undefined (it is an output).
	Init func(i int) (float64, bool)
}

// InitAll returns an Init that defines every cell with f.
func InitAll(f func(i int) float64) func(int) (float64, bool) {
	return func(i int) (float64, bool) { return f(i), true }
}

// InitRange returns an Init defining cells in [lo, hi) with f and
// leaving the rest undefined.
func InitRange(lo, hi int, f func(i int) float64) func(int) (float64, bool) {
	return func(i int) (float64, bool) {
		if i >= lo && i < hi {
			return f(i), true
		}
		return 0, false
	}
}

// Arr is a kernel's handle to one array, bound to an engine.
type Arr struct {
	ID   int
	Name string
	Dims partition.Dims
	eng  Engine
}

// Len returns the total number of elements.
func (a *Arr) Len() int { return a.Dims.Elems() }

// Set assigns element idx the value of rhs under single assignment.
// rhs is only evaluated when the executing context owns the element.
func (a *Arr) Set(rhs func() float64, idx ...int) {
	lin := a.Dims.Linear(idx...)
	if !a.eng.BeginAssign(a, lin) {
		return
	}
	a.eng.FinishAssign(a, lin, rhs())
}

// Get reads element idx. Inside a Set closure the read is charged to the
// assignment's owning PE; outside it is a control read performed by all
// PEs (the loop body is replicated on every PE, §2).
func (a *Arr) Get(idx ...int) float64 {
	return a.eng.Read(a, a.Dims.Linear(idx...))
}

// Ctx gives a kernel body access to its bound arrays and to reductions.
type Ctx struct {
	eng  Engine
	arrs map[string]*Arr
	list []*Arr
}

// Bind instantiates the kernel's array specs on an engine and returns
// the execution context. Engines call this after allocating storage.
func Bind(eng Engine, specs []Spec) (*Ctx, error) {
	c := &Ctx{eng: eng, arrs: make(map[string]*Arr, len(specs))}
	for i, s := range specs {
		dims, err := partition.NewDims(s.Dims...)
		if err != nil {
			return nil, fmt.Errorf("loops: array %q: %w", s.Name, err)
		}
		if _, dup := c.arrs[s.Name]; dup {
			return nil, fmt.Errorf("loops: duplicate array name %q", s.Name)
		}
		a := &Arr{ID: i, Name: s.Name, Dims: dims, eng: eng}
		c.arrs[s.Name] = a
		c.list = append(c.list, a)
	}
	return c, nil
}

// A returns the handle for a declared array, panicking on unknown names
// (a kernel referencing an undeclared array is a programming error).
func (c *Ctx) A(name string) *Arr {
	a, ok := c.arrs[name]
	if !ok {
		panic(fmt.Sprintf("loops: kernel references undeclared array %q", name))
	}
	return a
}

// Arrays returns all handles in declaration order.
func (c *Ctx) Arrays() []*Arr { return c.list }

// Rebind points the context and its array handles at another engine
// over the same declarations, so a back end that hosts more than one
// engine on shared storage (internal/sim) binds a kernel once.
func (c *Ctx) Rebind(eng Engine) {
	c.eng = eng
	for _, a := range c.list {
		a.eng = eng
	}
}

// ReduceSum sums term(i) for i in [lo, hi), attributing each term to the
// owner of driver[i] and collecting through the host processor.
func (c *Ctx) ReduceSum(driver *Arr, lo, hi int, term func(i int) float64) float64 {
	v, _ := c.eng.Reduce(OpSum, driver, lo, hi, term)
	return v
}

// ReduceMin returns the minimum of term(i) over [lo, hi) and the first
// index attaining it.
func (c *Ctx) ReduceMin(driver *Arr, lo, hi int, term func(i int) float64) (float64, int) {
	return c.eng.Reduce(OpMin, driver, lo, hi, term)
}

// ReduceMax returns the maximum of term(i) over [lo, hi) and the first
// index attaining it.
func (c *Ctx) ReduceMax(driver *Arr, lo, hi int, term func(i int) float64) (float64, int) {
	return c.eng.Reduce(OpMax, driver, lo, hi, term)
}

// Class is the paper's access-distribution taxonomy (§7.1).
type Class int

// Access-distribution classes.
const (
	ClassUnknown Class = iota
	MD                 // matched distribution: all indices equal, 0% remote
	SD                 // skewed distribution: constant offsets
	CD                 // cyclic distribution: fixed page set visited cyclically
	RD                 // random distribution: cache-resistant accesses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case MD:
		return "MD"
	case SD:
		return "SD"
	case CD:
		return "CD"
	case RD:
		return "RD"
	case ClassUnknown:
		return "?"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Kernel is one Livermore Loop in single-assignment form.
type Kernel struct {
	ID       int    // Livermore kernel number (0 for fragments)
	Key      string // short stable identifier, e.g. "k1"
	Name     string // paper's loop name
	Class    Class  // paper-assigned class; ClassUnknown if the paper did not classify it
	DefaultN int    // canonical problem size
	MinN     int    // smallest meaningful problem size
	MaxN     int    // largest admitted problem size; 0 means unbounded
	Notes    string // fidelity notes: SA conversions, simplifications
	// Arrays returns the array declarations for problem size n.
	Arrays func(n int) []Spec
	// Run executes the kernel body for problem size n.
	Run func(c *Ctx, n int)
	// Outputs names the arrays whose final contents define the kernel's
	// result (for checksumming and engine cross-validation).
	Outputs []string
}

// ClampN returns n clamped to the kernel's admitted size range,
// defaulting to DefaultN when n <= 0. The high clamp only applies when
// MaxN is set (compiled kernels carry a resource-derived ceiling;
// built-ins leave it 0 = unbounded).
func (k *Kernel) ClampN(n int) int {
	if n <= 0 {
		n = k.DefaultN
	}
	if n < k.MinN {
		n = k.MinN
	}
	if k.MaxN > 0 && n > k.MaxN {
		n = k.MaxN
	}
	return n
}
