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
//   - Experiments regenerates every figure and table of the paper's
//     evaluation, each with machine-checked shape criteria
//     (internal/core);
//   - Classify reproduces the §7 access-distribution taxonomy
//     (internal/classify);
//   - ConvertToSA is the §5 automatic single-assignment conversion
//     tool over the affine loop IR (internal/convert, internal/ir);
//   - NewServer turns the sweep/replay machinery into a long-lived
//     HTTP classification service — the daemon behind cmd/lfksimd
//     (internal/serve, docs/SERVING.md).
package repro

import (
	"repro/internal/classify"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/network"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Kernel is a Livermore Loop in single-assignment form.
type Kernel = loops.Kernel

// Class is the paper's access-distribution taxonomy (MD/SD/CD/RD).
type Class = loops.Class

// Access-distribution classes.
const (
	MD = loops.MD
	SD = loops.SD
	CD = loops.CD
	RD = loops.RD
)

// SimConfig configures the counting simulator.
type SimConfig = sim.Config

// SimResult is a counting-simulation outcome.
type SimResult = sim.Result

// MachineConfig configures the concurrent execution engine.
type MachineConfig = machine.Config

// MachineResult is a concurrent-execution outcome.
type MachineResult = machine.Result

// FaultConfig configures deterministic fault injection on the machine's
// interconnect (drop/dup/delay/stall probabilities and a seed); set it
// on MachineConfig.Faults to run over a lossy network. See docs/FAULTS.md.
type FaultConfig = network.FaultConfig

// FaultStats accounts the faults injected during one run.
type FaultStats = network.FaultStats

// RetryPolicy tunes the self-healing page protocol (timeouts, backoff,
// attempt bound) that makes the machine converge under injected faults.
type RetryPolicy = machine.RetryPolicy

// Experiment is one reproducible unit of the paper's evaluation.
type Experiment = core.Experiment

// Outcome is an experiment result with its shape checks.
type Outcome = core.Outcome

// Program is an affine loop nest for the conversion tool.
type Program = ir.Program

// ConversionResult reports a single-assignment conversion.
type ConversionResult = convert.Result

// Kernels returns all 24 Livermore kernels plus the paper's two class
// exemplar fragments.
func Kernels() []*Kernel { return loops.All() }

// KernelByKey returns a kernel by its key ("k1".."k24", "k14frag",
// "k18frag").
func KernelByKey(key string) (*Kernel, error) { return loops.ByKey(key) }

// PaperKernels returns the kernels the paper's evaluation discusses.
func PaperKernels() []*Kernel { return loops.PaperSet() }

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

// Experiments returns every figure, table and ablation of the
// reproduction, in presentation order.
func Experiments() []Experiment { return core.Experiments() }

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

// Server is the batching, caching HTTP classification service over the
// sweep/replay engines (POST /v1/classify, POST /v1/sweep, …). Mount
// its Handler on an http.Server and Close it after Shutdown to drain.
type Server = serve.Server

// ServeOptions sizes a Server: worker pool, admission bound, result
// and stream cache capacities, the sweep-size limit, deadlines,
// metrics.
// The zero value serves with defaults scaled from GOMAXPROCS.
type ServeOptions = serve.Options

// NewServer builds the classification service; see docs/SERVING.md.
func NewServer(opts ServeOptions) *Server { return serve.New(opts) }

// CostModel prices access classes in cycles for execution-time
// estimation (the paper's §9 future work).
type CostModel = sim.CostModel

// Timing is an execution-time and speedup estimate.
type Timing = sim.Timing

// DefaultCostModel returns the baseline access pricing.
func DefaultCostModel() CostModel { return sim.DefaultCostModel() }

// EstimateTiming prices a simulation result on a 2-D mesh of the
// run's size under the default cost model, returning per-PE busy
// time, makespan and speedup versus one PE.
func EstimateTiming(res *SimResult) Timing {
	return res.Estimate(sim.DefaultCostModel(), network.NewMesh2D(res.Config.NPE))
}
