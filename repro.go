// Package repro is a reproduction of Bic, Nagel & Roy, "Automatic
// Data/Program Partitioning Using the Single Assignment Principle"
// (UC Irvine TR 89-08, 1989): a loosely-coupled MIMD machine in which
// single assignment makes data/program partitioning, synchronization
// and caching automatic.
//
// The package is a facade over the internal subsystems:
//
//   - Simulate runs the paper's access-counting simulator over a
//     Livermore kernel and classifies every access as write / local /
//     cached / remote (internal/sim);
//   - Execute runs the same kernel on a concurrent engine with one
//     goroutine per PE and real message-passing, verifying that single
//     assignment alone synchronizes the machine (internal/machine);
//   - RunExperiment regenerates one figure or table of the paper's
//     evaluation, with machine-checked shape criteria (internal/core);
//   - Classify reproduces the §7 access-distribution taxonomy
//     (internal/classify);
//   - ConvertToSA is the §5 automatic single-assignment conversion
//     tool over the affine loop IR (internal/convert, internal/ir).
//
// The HTTP classification daemon is cmd/lfksimd (docs/SERVING.md).
package repro

import (
	"repro/internal/classify"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Class is the paper's access-distribution taxonomy (MD/SD/CD/RD).
type Class = loops.Class

// SimConfig configures the counting simulator.
type SimConfig = sim.Config

// SimResult is a counting-simulation outcome.
type SimResult = sim.Result

// MachineConfig configures the concurrent execution engine.
type MachineConfig = machine.Config

// MachineResult is a concurrent-execution outcome.
type MachineResult = machine.Result

// Outcome is an experiment result with its shape checks.
type Outcome = core.Outcome

// Program is an affine loop nest for the conversion tool.
type Program = ir.Program

// ConversionResult reports a single-assignment conversion.
type ConversionResult = convert.Result

// PaperConfig returns the paper's baseline simulator configuration:
// modulo layout, LRU, 256-element cache.
func PaperConfig(npe, pageSize int) SimConfig { return sim.PaperConfig(npe, pageSize) }

// NoCacheConfig returns the paper's cache-less comparison point.
func NoCacheConfig(npe, pageSize int) SimConfig { return sim.NoCacheConfig(npe, pageSize) }

// Simulate runs the counting simulator (the paper's methodology) over
// kernel key at problem size n (0 = kernel default).
func Simulate(key string, n int, cfg SimConfig) (*SimResult, error) {
	k, err := loops.ByKey(key)
	if err != nil {
		return nil, err
	}
	return sim.Run(k, n, cfg)
}

// Execute runs the kernel on the concurrent machine: one goroutine per
// PE, single-assignment memory, page caching and message passing.
func Execute(key string, n int, cfg MachineConfig) (*MachineResult, error) {
	k, err := loops.ByKey(key)
	if err != nil {
		return nil, err
	}
	return machine.Run(k, n, cfg)
}

// DefaultMachine returns the concurrent engine's baseline
// configuration.
func DefaultMachine(npe, pageSize int) MachineConfig { return machine.DefaultConfig(npe, pageSize) }

// RunExperiment runs one experiment by ID ("fig1".."fig5", "tableA",
// "tableB", "ablation-*").
func RunExperiment(id string) (*Outcome, error) {
	e, err := core.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// Classify dynamically classifies kernel key into the §7 taxonomy.
func Classify(key string, n int) (Class, error) {
	k, err := loops.ByKey(key)
	if err != nil {
		return loops.ClassUnknown, err
	}
	cls, _, err := classify.Dynamic(k, n)
	return cls, err
}

// ConvertToSA applies the §5 automatic conversion tool to an affine
// loop program, returning the single-assignment form and the rewrite
// report.
func ConvertToSA(p *Program, n int) (*ConversionResult, error) { return convert.ToSA(p, n) }

// ParseProgram parses the Fortran-flavored loop surface syntax (see
// internal/ir and testdata/*.loop) into a Program.
func ParseProgram(src string) (*Program, error) { return ir.Parse(src) }
