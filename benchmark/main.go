// Command benchmark is the one benchmark of the whole ladder: six
// named workloads from the paper's evaluation grid to the routed
// daemon, five end-to-end metrics, and a ladder of per-layer metrics
// timed from outside the program. See README.md.
//
// Usage (through run.sh, which builds this program and cmd/lfksimd):
//
//	bash benchmark/run.sh                          every workload, tracing off
//	bash benchmark/run.sh -traced                  also the per-layer metrics
//	bash benchmark/run.sh -repeat 5 -o A.json      five suites: median, quartiles, spread
//	bash benchmark/run.sh -compare A.json B.json   verdict per (metric, workload)
//	bash benchmark/run.sh --workload grid_paper --seed 1 --seconds 10 --trace 0
//	                                               one run; last stdout line is the result
//	bash benchmark/run.sh -update-golden           rewrite golden/*.sha256 from the reference engine
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
)

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line of a single run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, x := range list {
			m[x.Name] = x.Unit
		}
	}
	return m
}()

// set records a metric; the name must be in the metric table.
func (r *result) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("metric not in the table: " + name) // a bug in this program
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a ratio over a window that saw no ops; JSON cannot carry it
	}
	r.Metrics[name] = value{Value: v, Unit: unit}
}

// fill takes the op counts of a window.
func (r *result) fill(w *window) { r.Attempted, r.Failed = w.Ops, w.Failed }

// environment is where a run lives: everything it reads or writes is
// under root.
type environment struct {
	start    time.Time
	root     string // the checkout
	benchDir string // root/benchmark: golden digests, README
	outDir   string // root/benchmark/out: traces and result files (git-ignored)
	work     string // root/.bench_build/work/<pid>: daemon scratch space, removed when the run ends
	self     string // this executable
	lfksimd  string // cmd/lfksimd, built beside it by run.sh
}

func (e *environment) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

func newEnvironment(start time.Time) (*environment, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	e := &environment{
		start:    start,
		root:     root,
		benchDir: filepath.Join(root, "benchmark"),
		outDir:   filepath.Join(root, "benchmark", "out"),
		work:     filepath.Join(root, ".bench_build", "work", fmt.Sprint(os.Getpid())),
		self:     self,
		lfksimd:  filepath.Join(filepath.Dir(self), "lfksimd"),
	}
	if _, err := os.Stat(filepath.Join(e.benchDir, "golden")); err != nil {
		return nil, fmt.Errorf("run from the repository root (via benchmark/run.sh): %w", err)
	}
	return e, nil
}

// host is the shape of the machine a result was measured on; results
// from different shapes are not compared.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Arch       string `json:"arch"`
}

func hostShape() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: 2, GoVersion: runtime.Version(), Arch: runtime.GOARCH}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traced   bool
	repeat   int
	out      string
	compare  bool
	golden   bool
	list     bool
	manifest bool
	phase    string
}

func main() {
	start := time.Now()
	// The program under test gets two cores whatever the host offers;
	// daemons and grid children are pinned the same way.
	runtime.GOMAXPROCS(2)
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result as the last line (default: all six)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: same seed, same inputs")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&o.traced, "traced", false, "suite: also run every workload with --trace 1")
	flag.IntVar(&o.repeat, "repeat", 1, "suite: run it this many times and print median, quartiles and spread")
	flag.StringVar(&o.out, "o", "", "suite: write the results to this JSON file")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.BoolVar(&o.golden, "update-golden", false, "rewrite golden/<workload>.sha256 from the reference engine (direct sim.Run)")
	flag.BoolVar(&o.list, "list", false, "print every metric with unit, direction, layer and how it is obtained")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as rendered from the workload and metric tables")
	flag.StringVar(&o.phase, "phase", "", "internal: grid child phase (setup or measure)")
	flag.Parse()
	if err := run(start, o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(start time.Time, o options) error {
	switch {
	case o.list:
		printMetricList()
		return nil
	case o.manifest:
		b, err := manifest()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	case o.compare:
		if flag.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) || o.repeat < 1 {
		return errors.New("need --seconds > 0, --trace 0 or 1, -repeat >= 1")
	}
	env, err := newEnvironment(start)
	if err != nil {
		return err
	}
	if o.golden {
		return updateGolden(env)
	}
	if o.workload == "" {
		return runSuite(env, o.seed, o.seconds, o.traced, o.repeat, o.out)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.phase != "" {
		return gridPhase(env, w, o.seed, o.seconds, o.trace == 1, o.phase)
	}
	if _, err := os.Stat(env.lfksimd); err != nil {
		return fmt.Errorf("cmd/lfksimd is not built beside this program (use benchmark/run.sh): %w", err)
	}
	res, err := runWorkload(env, w, o.seed, o.seconds, o.trace == 1)
	if err != nil {
		return err
	}
	printRun(runRecord{Workload: w.Name, Trace: o.trace, result: *res})
	return printJSON(res)
}

func tableFor(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}

// runWorkload is one run: the workload itself, then the paper's shape
// checks, so speeds are never reported for a simulator that no longer
// reproduces the paper.
func runWorkload(env *environment, w workload, seed int64, seconds float64, traced bool) (*result, error) {
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.work)
	var res *result
	var err error
	if w.Daemon {
		res, err = runDaemonWorkload(env, w, seed, seconds, traced)
	} else {
		res, err = runGridWorkload(env, w, seed, seconds, traced)
	}
	if err != nil {
		return nil, err
	}
	if traced {
		tr := newTracer()
		if err := runLadder(env, tr, res); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		if err := tr.write(filepath.Join(env.outDir, "trace-ladder.json")); err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				res.set(m.Name, 0) // layer not on this workload's path
			}
		}
	}
	env.logf("host %+v, seed %d, %g s window", hostShape(), seed, seconds)
	passed, total, headline, err := shapeChecks()
	if err != nil {
		return nil, err
	}
	env.logf("paper shape checks %d/%d; %s", passed, total, headline)
	if passed != total {
		res.Correct = false
	}
	if !res.Correct {
		res.Failed = res.Attempted // no latency of a wrong answer counts
	}
	return res, nil
}

// shapeChecks runs every experiment of the reproduction once and
// counts its machine-verified shape criteria (67 at the seed).
func shapeChecks() (passed, total int, headline string, err error) {
	outs, err := core.RunAll(context.Background())
	if err != nil {
		return 0, 0, "", fmt.Errorf("core.RunAll: %w", err)
	}
	for _, o := range outs {
		for _, c := range o.Checks {
			total++
			if c.Pass {
				passed++
			}
		}
	}
	headline, err = paperHeadline()
	return passed, total, headline, err
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func lastLine(out []byte) []byte {
	out = bytes.TrimRight(out, "\n")
	return out[bytes.LastIndexByte(out, '\n')+1:]
}

// printMetricList prints the glossary as the two Markdown tables
// README.md holds.
func printMetricList() {
	fmt.Println("| Metric | Unit | Better | Bound | What it is |\n| --- | --- | --- | --- | --- |")
	for _, m := range endToEnd {
		fmt.Printf("| `%s` | %s | %s | %.2f | %s |\n", m.Name, m.Unit, m.Better, m.Bound, m.How)
	}
	fmt.Println("\n| Metric | Unit | Better | Layer | How obtained | Moves |\n| --- | --- | --- | --- | --- | --- |")
	for _, m := range perLayer {
		fmt.Printf("| `%s` | %s | %s | %s | %s | %s |\n", m.Name, m.Unit, m.Better, m.Layer, m.How, m.Moves)
	}
}
