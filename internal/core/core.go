// Package core orchestrates the reproduction experiments: one
// Experiment per figure and table in the paper's evaluation (§7), plus
// the ablations its §9 future-work section calls for and three
// extensions that implement what §9 only sketches.
//
// Every experiment carries machine-checkable shape criteria ("who wins,
// by roughly what factor, where crossovers fall") so that `go test`
// certifies the reproduction, and a Notes narrative so EXPERIMENTS.md
// can be regenerated from source (see report.go and `lfksim -docs`).
//
// Each experiment expands its parameter grid into sweep.Points and runs
// them on the parallel sweep engine (internal/sweep); RunAll
// additionally fans the experiments themselves out over a bounded pool.
// Both levels preserve deterministic ordering, so the rendered document
// and the `lfksim -all` transcript are byte-stable across runs and
// worker counts.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/stats"
	"repro/internal/sweep"
)

// PESweep is the PE axis used by the paper's figures.
var PESweep = sweep.PaperPEs

// Check is one machine-verified shape criterion.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Outcome is the result of running one experiment.
type Outcome struct {
	Title  string
	Paper  string // what the paper reports
	Figure *stats.Figure
	Text   string // rendered table or report
	Notes  string // narrative for the generated EXPERIMENTS.md (may be empty)
	Checks []Check

	// Wall is the experiment's wall-clock duration, set by RunTimed and
	// RunAll for run manifests. It is observability metadata only —
	// never rendered into the deterministic documents.
	Wall time.Duration
}

// Pass reports whether every check passed.
func (o *Outcome) Pass() bool {
	for _, c := range o.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Experiment is one reproducible unit of the evaluation.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Outcome, error)
}

// Experiments returns every experiment in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "Figure 1: skewed access pattern (Hydro Fragment, skew 11)", Run: Figure1},
		{ID: "fig2", Title: "Figure 2: cyclic access pattern (ICCG)", Run: Figure2},
		{ID: "fig3", Title: "Figure 3: cyclic+skewed combination (2-D Explicit Hydrodynamics)", Run: Figure3},
		{ID: "fig4", Title: "Figure 4: random access pattern (General Linear Recurrence)", Run: Figure4},
		{ID: "fig5", Title: "Figure 5: remote-access load balance (64 PEs)", Run: Figure5},
		{ID: "tableA", Title: "Table A: access-distribution classification (§7.1)", Run: TableA},
		{ID: "tableB", Title: "Table B: conclusions summary (§8)", Run: TableB},
		{ID: "ablation-layout", Title: "Ablation α: modulo vs division partitioning (§9)", Run: AblationLayout},
		{ID: "ablation-cache", Title: "Ablation β: cache size rescues RD (§7.1.4/§8)", Run: AblationCacheSize},
		{ID: "ablation-pagesize", Title: "Ablation γ: page-size selectability (§9)", Run: AblationPageSize},
		{ID: "ablation-policy", Title: "Ablation δ: replacement policy (LRU vs alternatives)", Run: AblationPolicy},
		{ID: "ext-speedup", Title: "Extension: execution-time model and speedup per class (§9)", Run: ExtSpeedup},
		{ID: "ext-contention", Title: "Extension: network contention per class and topology (§9)", Run: ExtContention},
		{ID: "ext-advisor", Title: "Extension: class-driven partitioning advisor (§9)", Run: ExtAdvisor},
	}
}

// RunTimed runs the experiment and stamps the outcome with its
// wall-clock duration.
func (e Experiment) RunTimed() (*Outcome, error) {
	start := time.Now()
	o, err := e.Run()
	if err != nil {
		return nil, err
	}
	o.Wall = time.Since(start)
	return o, nil
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q", id)
}

// RunAll executes every experiment over a bounded worker pool and
// returns the outcomes in presentation order. Each experiment already
// sweeps its own grid concurrently; RunAll adds a second fan-out level
// across experiments so heterogeneous experiments (classification,
// network routing) overlap with the figure sweeps. A failing experiment
// cancels the rest and its error (lowest presentation index) is
// returned.
func RunAll(ctx context.Context) ([]*Outcome, error) {
	return sweep.Map(ctx, Experiments(), func(ctx context.Context, i int, e Experiment) (*Outcome, error) {
		o, err := e.RunTimed()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		return o, nil
	})
}
