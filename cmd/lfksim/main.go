// Command lfksim regenerates every figure and table of Bic, Nagel &
// Roy (1989) from the counting simulator, runs the ablations, and
// supports one-off kernel simulations. Experiments execute on the
// parallel sweep engine (internal/sweep); -all fans the experiments
// themselves out as well, and output order stays deterministic.
//
// Long sweeps are observable while they run: a live progress line on
// stderr tracks points done/failed with an ETA, -manifest records one
// JSON manifest per experiment (or per run with -kernel), -metrics
// prints the final metrics-registry snapshot, and -pprof serves
// net/http/pprof plus the registry over expvar for profiling. See
// docs/OBSERVABILITY.md.
//
// Usage:
//
//	lfksim -all                 run every experiment (concurrently)
//	lfksim -exp fig1            one experiment (fig1..fig5, tableA, tableB, ablation-*)
//	lfksim -exp fig2 -chart     include an ASCII chart of the figure
//	lfksim -all -manifest out/  also write one JSON run manifest per experiment
//	lfksim -all -metrics        print the metrics-registry snapshot after the run
//	lfksim -all -pprof :6060    serve /debug/pprof/ and /debug/vars while running
//	lfksim -docs -o EXPERIMENTS.md
//	                            regenerate the experiments document
//	lfksim -workers 4           cap the worker pools (0 = GOMAXPROCS)
//	lfksim -list                list experiments and kernels
//	lfksim -kernel k1 -npe 8 -ps 32 -cache 256 -n 1000
//	                            one-off simulation of a kernel
//	lfksim -kernel k1 -machine  execute the kernel on the concurrent
//	                            machine instead of the counting simulator
//	lfksim -kernel k1 -machine -drop 0.2 -dup 0.1 -delay 200us -fault-seed 7
//	                            chaos run: lossy interconnect with the
//	                            self-healing page protocol (docs/FAULTS.md)
//	lfksim -kernel k1 -machine -deadline 30s
//	                            override the deadlock watchdog interval
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		exp      = flag.String("exp", "", "run one experiment by id")
		chart    = flag.Bool("chart", false, "render ASCII charts for figures")
		csvDir   = flag.String("csv", "", "also write each figure's series as CSV into this directory")
		svgDir   = flag.String("svg", "", "also render each figure as SVG into this directory")
		docs     = flag.Bool("docs", false, "regenerate the EXPERIMENTS.md document")
		out      = flag.String("o", "", "output file for -docs (default stdout)")
		workers  = flag.Int("workers", 0, "worker-pool size for sweeps (0 = GOMAXPROCS)")
		list     = flag.Bool("list", false, "list experiments and kernels")
		kernel   = flag.String("kernel", "", "simulate one kernel")
		npe      = flag.Int("npe", 8, "number of PEs")
		ps       = flag.Int("ps", 32, "page size (elements)")
		cache    = flag.Int("cache", 256, "per-PE cache size in elements (0 = none)")
		n        = flag.Int("n", 0, "problem size (0 = kernel default)")
		manifest = flag.String("manifest", "", "write JSON run manifests into this directory")
		pprof    = flag.String("pprof", "", "serve net/http/pprof and expvar metrics on this address (e.g. :6060)")
		metrics  = flag.Bool("metrics", false, "print the final metrics-registry snapshot as JSON")
		quiet    = flag.Bool("quiet", false, "suppress the live progress line")

		// Concurrent-machine execution and its chaos knobs (docs/FAULTS.md).
		machineRun = flag.Bool("machine", false, "execute -kernel on the concurrent machine (goroutine per PE) instead of the counting simulator")
		faultSeed  = flag.Int64("fault-seed", 1, "deterministic fault-injection seed (with -drop/-dup/-delay)")
		drop       = flag.Float64("drop", 0, "page-message drop probability [0,1] (requires -machine)")
		dup        = flag.Float64("dup", 0, "page-message duplication probability [0,1] (requires -machine)")
		delay      = flag.Duration("delay", 0, "max page-message delay; 0 disables delay injection (requires -machine)")
		deadline   = flag.Duration("deadline", 0, "deadlock watchdog quiet interval; 0 derives from NPE and problem size, negative disables (requires -machine)")
	)
	flag.Parse()

	if err := validateFlags(*all, *exp, *kernel, *npe, *ps, *cache, *n, *workers); err != nil {
		fail(err)
	}
	if err := validateFaultFlags(*machineRun, *kernel, *drop, *dup, *delay, *deadline); err != nil {
		fail(err)
	}

	// The sweep engine sizes its default pools from GOMAXPROCS, so a
	// single knob caps every fan-out level at once.
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}

	// One registry per process: every layer (sweep, sim, machine,
	// network) reports into it through obs.Default, the progress line
	// renders from it, -metrics dumps it, and -pprof exports it.
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	if *pprof != "" {
		stopPprof, perr := servePprof(*pprof, reg)
		if perr != nil {
			fail(perr)
		}
		defer stopPprof()
	}
	progressOn := !*quiet

	var err error
	switch {
	case *list:
		listAll()
	case *docs:
		err = withProgress(reg, progressOn, func() error { return runDocs(*out) })
	case *all:
		err = runAllExperiments(reg, progressOn, *chart, *csvDir, *svgDir, *manifest)
	case *exp != "":
		err = runOneExperiment(reg, progressOn, *exp, *chart, *csvDir, *svgDir, *manifest)
	case *kernel != "" && *machineRun:
		err = runMachineKernel(reg, *kernel, *n, *npe, *ps, *cache, *manifest,
			chaosFlags{seed: *faultSeed, drop: *drop, dup: *dup, delay: *delay}, *deadline)
	case *kernel != "":
		err = runKernel(reg, *kernel, *n, *npe, *ps, *cache, *manifest)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}
	if *metrics {
		payload, merr := json.MarshalIndent(reg.Snapshot(), "", "  ")
		if merr != nil {
			fail(merr)
		}
		fmt.Println(string(payload))
	}
}

// validateFlags rejects nonsensical flag combinations and values with
// one-line errors before any work starts.
func validateFlags(all bool, exp, kernel string, npe, ps, cache, n, workers int) error {
	switch {
	case all && exp != "":
		return fmt.Errorf("-all and -exp are mutually exclusive; drop one")
	case all && kernel != "":
		return fmt.Errorf("-all and -kernel are mutually exclusive; drop one")
	case exp != "" && kernel != "":
		return fmt.Errorf("-exp and -kernel are mutually exclusive; drop one")
	case npe <= 0:
		return fmt.Errorf("-npe must be positive, got %d", npe)
	case ps <= 0:
		return fmt.Errorf("-ps must be positive, got %d", ps)
	case cache < 0:
		return fmt.Errorf("-cache must be >= 0 (0 disables caching), got %d", cache)
	case n < 0:
		return fmt.Errorf("-n must be >= 0 (0 selects the kernel default), got %d", n)
	case workers < 0:
		return fmt.Errorf("-workers must be >= 0 (0 selects GOMAXPROCS), got %d", workers)
	}
	return nil
}

// chaosFlags bundles the fault-injection knobs of a -machine run.
type chaosFlags struct {
	seed      int64
	drop, dup float64
	delay     time.Duration
}

// enabled reports whether any fault injection was requested.
func (c chaosFlags) enabled() bool { return c.drop > 0 || c.dup > 0 || c.delay > 0 }

// validateFaultFlags rejects chaos knobs that are out of range or that
// were given without the mode they apply to.
func validateFaultFlags(machineRun bool, kernel string, drop, dup float64, delay, deadline time.Duration) error {
	switch {
	case machineRun && kernel == "":
		return fmt.Errorf("-machine requires -kernel")
	case !machineRun && (drop > 0 || dup > 0 || delay > 0 || deadline != 0):
		return fmt.Errorf("-drop/-dup/-delay/-deadline apply only to -machine runs; add -machine")
	case drop < 0 || drop > 1:
		return fmt.Errorf("-drop must be in [0,1], got %g", drop)
	case dup < 0 || dup > 1:
		return fmt.Errorf("-dup must be in [0,1], got %g", dup)
	case delay < 0:
		return fmt.Errorf("-delay must be >= 0, got %v", delay)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lfksim:", err)
	os.Exit(1)
}

// emit writes the payload to path, or stdout when path is empty.
func emit(path string, payload []byte) error {
	if path == "" {
		_, err := os.Stdout.Write(payload)
		return err
	}
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// withProgress runs f with the live progress line active.
func withProgress(reg *obs.Registry, on bool, f func() error) error {
	if !on {
		return f()
	}
	stop := startProgress(reg)
	defer stop()
	return f()
}

func runDocs(out string) error {
	outs, err := core.RunAll(context.Background())
	if err != nil {
		return err
	}
	return emit(out, []byte(core.RenderMarkdown(outs)))
}

func runAllExperiments(reg *obs.Registry, progress, chart bool, csvDir, svgDir, manifestDir string) error {
	var outs []*core.Outcome
	err := withProgress(reg, progress, func() error {
		var err error
		outs, err = core.RunAll(context.Background())
		return err
	})
	if err != nil {
		return err
	}
	for i, e := range core.Experiments() {
		if err := emitOutcome(e, outs[i], chart, csvDir, svgDir); err != nil {
			return err
		}
		if manifestDir != "" {
			// Per-experiment manifests; the registry snapshot spans all
			// experiments, so it is omitted here (use -metrics for it).
			if err := writeExperimentManifest(manifestDir, e, outs[i], nil); err != nil {
				return err
			}
		}
	}
	return nil
}

func runOneExperiment(reg *obs.Registry, progress bool, id string, chart bool, csvDir, svgDir, manifestDir string) error {
	e, err := core.ByID(id)
	if err != nil {
		return err
	}
	var o *core.Outcome
	err = withProgress(reg, progress, func() error {
		var err error
		o, err = e.RunTimed()
		return err
	})
	if err != nil {
		return err
	}
	if err := emitOutcome(e, o, chart, csvDir, svgDir); err != nil {
		return err
	}
	if manifestDir != "" {
		// A single experiment ran, so the registry snapshot is its own.
		if err := writeExperimentManifest(manifestDir, e, o, reg.Snapshot()); err != nil {
			return err
		}
	}
	return nil
}

func listAll() {
	fmt.Println("Experiments:")
	for _, e := range core.Experiments() {
		fmt.Printf("  %-18s %s\n", e.ID, e.Title)
	}
	fmt.Println("\nKernels:")
	for _, k := range loops.All() {
		fmt.Printf("  %-9s class=%-3s n=%-5d %s\n", k.Key, k.Class, k.DefaultN, k.Name)
	}
}

func emitOutcome(e core.Experiment, o *core.Outcome, chart bool, csvDir, svgDir string) error {
	fmt.Printf("==== %s ====\n", e.Title)
	fmt.Printf("paper: %s\n\n", o.Paper)
	fmt.Println(o.Text)
	if chart && o.Figure != nil {
		fmt.Println(o.Figure.Chart(12))
	}
	if csvDir != "" && o.Figure != nil {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(csvDir, e.ID+".csv")
		if err := os.WriteFile(path, []byte(o.Figure.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", path)
	}
	if svgDir != "" && o.Figure != nil {
		if err := os.MkdirAll(svgDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(svgDir, e.ID+".svg")
		if err := os.WriteFile(path, []byte(o.Figure.SVG(640, 420)), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", path)
	}
	for _, c := range o.Checks {
		status := "ok  "
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Printf("  [%s] %s — %s\n", status, c.Name, c.Detail)
	}
	fmt.Println()
	if !o.Pass() {
		return fmt.Errorf("experiment %s failed its shape checks", e.ID)
	}
	return nil
}

func runKernel(reg *obs.Registry, key string, n, npe, ps, cacheElems int, manifestDir string) error {
	k, err := loops.ByKey(key)
	if err != nil {
		return err
	}
	cfg := sim.PaperConfig(npe, ps)
	cfg.CacheElems = cacheElems
	s := sim.NewScratch()
	s.Metrics = reg
	start := time.Now()
	res, err := s.Run(k, n, cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	fmt.Printf("%s (%s), n=%d, %d PEs, page size %d, cache %d elements\n",
		k.Key, k.Name, res.N, npe, ps, cacheElems)
	fmt.Printf("  totals: %s\n", res.Totals)
	fmt.Printf("  remote reads: %.2f%% of reads; cached: %.2f%%\n",
		res.Totals.RemotePercent(), res.Totals.CachedPercent())
	lb := stats.BalanceOf(res.PerPE.Extract(stats.Write))
	fmt.Printf("  write balance: min=%d mean=%.1f max=%d CV=%.3f\n", lb.Min, lb.Mean, lb.Max, lb.CV)
	if manifestDir != "" {
		if err := writeRunManifest(manifestDir, res, wall, reg.Snapshot()); err != nil {
			return err
		}
	}
	return nil
}

// chaosDelayProb is the per-message delay probability used when -delay
// is set: a quarter of page traffic arrives late, which is enough to
// exercise reordering without dominating the drop/dup channels.
const chaosDelayProb = 0.25

// runMachineKernel executes one kernel on the concurrent machine,
// optionally over a lossy interconnect, and reports the self-healing
// protocol's counters alongside the paper's access totals.
func runMachineKernel(reg *obs.Registry, key string, n, npe, ps, cacheElems int, manifestDir string, chaos chaosFlags, deadline time.Duration) error {
	k, err := loops.ByKey(key)
	if err != nil {
		return err
	}
	cfg := machine.DefaultConfig(npe, ps)
	cfg.CacheElems = cacheElems
	cfg.Metrics = reg
	cfg.DeadlockTimeout = deadline
	var fc *network.FaultConfig
	if chaos.enabled() {
		fc = &network.FaultConfig{Seed: chaos.seed, Drop: chaos.drop, Dup: chaos.dup}
		if chaos.delay > 0 {
			fc.Delay = chaosDelayProb
			fc.MaxDelay = chaos.delay
		}
		if err := fc.Validate(); err != nil {
			return err
		}
		cfg.Faults = fc
	}
	start := time.Now()
	res, err := machine.Run(k, n, cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	fmt.Printf("%s (%s), n=%d, %d PEs, page size %d, cache %d elements [machine]\n",
		k.Key, k.Name, res.N, npe, ps, cacheElems)
	fmt.Printf("  totals: %s\n", res.Totals)
	fmt.Printf("  remote reads: %.2f%% of reads; cached: %.2f%%\n",
		res.Totals.RemotePercent(), res.Totals.CachedPercent())
	fmt.Printf("  messages: %d page requests, %d page replies, %d reduction msgs\n",
		res.PageRequests, res.PageReplies, res.ReduceMsgs)
	if fc != nil {
		fmt.Printf("  faults: seed=%d dropped=%d duplicated=%d delayed=%d (%d redundant bytes)\n",
			fc.Seed, res.Faults.Dropped, res.Faults.Duplicated, res.Faults.Delayed, res.Faults.RedundantBytes)
		fmt.Printf("  healing: %d retries, %d dup replies suppressed, %d dup requests suppressed\n",
			res.Retries, res.DupReplies, res.DupRequests)
	}
	if manifestDir != "" {
		if err := writeMachineManifest(manifestDir, res, fc, wall, reg.Snapshot()); err != nil {
			return err
		}
	}
	return nil
}
