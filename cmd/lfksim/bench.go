package main

// The -bench mode: times the full experiment suite and the standard
// paper grid, serial (GOMAXPROCS=1, single-worker pools) versus
// parallel (all cores), and appends the measurements to a JSON history
// — BENCH_sweep.json in the repository root is this program's output.
// Prior entries are preserved, so the file records the performance
// trajectory across changes rather than only the latest run.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/benchio"
	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/refstream"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sweep"
)

type benchReport struct {
	GeneratedBy string       `json:"generated_by"`
	Timestamp   string       `json:"timestamp,omitempty"` // RFC 3339 UTC
	GoVersion   string       `json:"go_version"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	NumCPU      int          `json:"num_cpu"`
	Suite       benchSuite   `json:"suite"`
	Grid        benchGrid    `json:"grid"`
	Replay      *benchReplay `json:"replay,omitempty"` // absent in pre-replay history entries
	// Serve is the serving-layer section appended by lfksimd -loadgen
	// (such entries carry only this section; -bench never writes it).
	Serve *serve.LoadReport `json:"serve,omitempty"`
}

// benchSuite times every experiment (each already sweeping its own
// grid): serial pins GOMAXPROCS to 1 so every pool degenerates to one
// worker; parallel restores the full core count and fans experiments
// out via core.RunAll.
type benchSuite struct {
	Experiments int     `json:"experiments"`
	Checks      int     `json:"checks"`
	SerialSec   float64 `json:"serial_sec"`
	ParallelSec float64 `json:"parallel_sec"`
	Speedup     float64 `json:"speedup"`
}

type benchGrid struct {
	Points   int      `json:"points"`
	Serial   benchLeg `json:"serial"`
	Parallel benchLeg `json:"parallel"`
	Speedup  float64  `json:"speedup"`
}

type benchLeg struct {
	Sec            float64 `json:"sec"`
	SecPerPoint    float64 `json:"sec_per_point"`
	PointsPerSec   float64 `json:"points_per_sec"`
	AllocsPerPoint float64 `json:"allocs_per_point"`
	BytesPerPoint  float64 `json:"bytes_per_point"`
}

// benchReplay isolates the execute-once/classify-many win on the
// standard grid, one single-worker sweep per strategy: Direct forces
// replay off (every point through sim.Scratch); Replay is per-point
// replay (ReplayPoint — one capture per (kernel, N) group, one stream
// pass per grid point); Batch is the full planner (ReplayOn — one
// stream pass per capture group classifying the whole group at once).
// BatchPar is the same planner with a multi-worker pool (Workers
// records the pool width): the workers drain one queue of chunks, so
// captures overlap classification and a group's chunks spread over
// the pool. Speedup, BatchSpeedup and BatchParSpeedup are each
// leg's win over Direct. SteadyAllocsPerPoint measures Replayer.Run
// alone — repeated replays of one captured stream, capture excluded —
// the steady state the ≤5 allocations budget is about (the Result
// itself accounts for them; see docs/PERF.md);
// SteadyBatchAllocsPerPoint is the same for RunBatch, amortized over
// the batch's points. Workers/BatchPar are zero in history entries
// that predate the parallel leg; -bench-compare tolerates them.
type benchReplay struct {
	Points                    int      `json:"points"`
	Captures                  int64    `json:"captures"`
	Workers                   int      `json:"workers,omitempty"`
	Direct                    benchLeg `json:"direct"`
	Replay                    benchLeg `json:"replay"`
	Batch                     benchLeg `json:"batch"`
	BatchPar                  benchLeg `json:"batch_par"`
	Speedup                   float64  `json:"speedup"`
	BatchSpeedup              float64  `json:"batch_speedup"`
	BatchParSpeedup           float64  `json:"batch_par_speedup,omitempty"`
	SteadyAllocsPerPoint      float64  `json:"steady_allocs_per_point"`
	SteadyBatchAllocsPerPoint float64  `json:"steady_batch_allocs_per_point"`
}

// standardGrid is the grid the benchmark sweeps: every paper-studied
// kernel across the paper's PE axis, both page sizes, cache on/off.
func standardGrid() []sweep.Point {
	return sweep.Grid{
		Kernels:    loops.PaperSet(),
		PageSizes:  []int{32, 64},
		CacheElems: []int{0, 256},
	}.Points()
}

func runBench(out string) error {
	ctx := context.Background()
	procs := runtime.GOMAXPROCS(0)
	rep := benchReport{
		GeneratedBy: "go run ./cmd/lfksim -bench",
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  procs,
		NumCPU:      runtime.NumCPU(),
	}

	// Suite, serial: GOMAXPROCS=1 makes every sweep pool single-worker
	// and removes goroutine parallelism, the honest serial baseline.
	runtime.GOMAXPROCS(1)
	start := time.Now()
	for _, e := range core.Experiments() {
		o, err := e.Run()
		if err != nil {
			runtime.GOMAXPROCS(procs)
			return fmt.Errorf("bench: %s (serial): %w", e.ID, err)
		}
		rep.Suite.Experiments++
		rep.Suite.Checks += len(o.Checks)
	}
	rep.Suite.SerialSec = time.Since(start).Seconds()
	runtime.GOMAXPROCS(procs)

	// Suite, parallel: experiments fan out and each sweeps concurrently.
	start = time.Now()
	if _, err := core.RunAll(ctx); err != nil {
		return fmt.Errorf("bench: parallel suite: %w", err)
	}
	rep.Suite.ParallelSec = time.Since(start).Seconds()
	rep.Suite.Speedup = rep.Suite.SerialSec / rep.Suite.ParallelSec

	// Grid: one homogeneous sweep, the engine's raw throughput.
	pts := standardGrid()
	rep.Grid.Points = len(pts)
	leg := func(workers int) (benchLeg, error) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := sweep.RunN(ctx, workers, pts); err != nil {
			return benchLeg{}, err
		}
		sec := time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		n := float64(len(pts))
		return benchLeg{
			Sec:            sec,
			SecPerPoint:    sec / n,
			PointsPerSec:   n / sec,
			AllocsPerPoint: float64(after.Mallocs-before.Mallocs) / n,
			BytesPerPoint:  float64(after.TotalAlloc-before.TotalAlloc) / n,
		}, nil
	}
	var err error
	if rep.Grid.Serial, err = leg(1); err != nil {
		return fmt.Errorf("bench: serial grid: %w", err)
	}
	if rep.Grid.Parallel, err = leg(0); err != nil {
		return fmt.Errorf("bench: parallel grid: %w", err)
	}
	rep.Grid.Speedup = rep.Grid.Serial.Sec / rep.Grid.Parallel.Sec

	// Replay: the same grid, direct versus replay — the execute-once/
	// classify-many section. The first three legs run single-worker so
	// the per-point ratio is a clean algorithmic comparison rather than
	// a scheduling one; the batch_par leg then re-runs the full planner
	// with a multi-worker pool draining the planner's one queue of
	// chunks — the end-to-end grid number.
	replay := &benchReplay{Points: len(pts)}
	replayLeg := func(mode sweep.ReplayMode, workers int) (benchLeg, int64, error) {
		reg := obs.NewRegistry()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := sweep.RunOpts(ctx, pts, sweep.Options{Workers: workers, Metrics: reg, Replay: mode}); err != nil {
			return benchLeg{}, 0, err
		}
		sec := time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		n := float64(len(pts))
		return benchLeg{
			Sec:            sec,
			SecPerPoint:    sec / n,
			PointsPerSec:   n / sec,
			AllocsPerPoint: float64(after.Mallocs-before.Mallocs) / n,
			BytesPerPoint:  float64(after.TotalAlloc-before.TotalAlloc) / n,
		}, reg.Counter(sweep.MetricStreamCaptures).Value(), nil
	}
	if replay.Direct, _, err = replayLeg(sweep.ReplayOff, 1); err != nil {
		return fmt.Errorf("bench: direct grid: %w", err)
	}
	if replay.Replay, replay.Captures, err = replayLeg(sweep.ReplayPoint, 1); err != nil {
		return fmt.Errorf("bench: replay grid: %w", err)
	}
	if replay.Batch, _, err = replayLeg(sweep.ReplayOn, 1); err != nil {
		return fmt.Errorf("bench: batch grid: %w", err)
	}
	// A pool of at least four workers even on a small host, so the
	// shared queue is what is being measured; on a one-core box the leg
	// records the (honest) lack of wall-clock win, and the
	// gomaxprocs/num_cpu fields say why.
	replay.Workers = procs
	if replay.Workers < 4 {
		replay.Workers = 4
	}
	if replay.BatchPar, _, err = replayLeg(sweep.ReplayOn, replay.Workers); err != nil {
		return fmt.Errorf("bench: parallel batch grid: %w", err)
	}
	replay.Speedup = replay.Direct.Sec / replay.Replay.Sec
	replay.BatchSpeedup = replay.Direct.Sec / replay.Batch.Sec
	replay.BatchParSpeedup = replay.Direct.Sec / replay.BatchPar.Sec
	if replay.SteadyAllocsPerPoint, err = steadyReplayAllocs(); err != nil {
		return fmt.Errorf("bench: steady-state replay: %w", err)
	}
	if replay.SteadyBatchAllocsPerPoint, err = steadyBatchAllocs(); err != nil {
		return fmt.Errorf("bench: steady-state batch replay: %w", err)
	}
	rep.Replay = replay

	payload, err := appendBenchHistory(out, rep)
	if err != nil {
		return err
	}
	return emit(out, payload)
}

// steadyReplayAllocs measures the allocations of one Replayer.Run in
// steady state: a stream captured once, a warmed Replayer, repeated
// classification under the paper's framed baseline (the general event
// path, so the number is the ceiling across paths).
func steadyReplayAllocs() (float64, error) {
	k := loops.PaperSet()[0]
	st, err := refstream.Capture(k, 0)
	if err != nil {
		return 0, err
	}
	cfg := sim.PaperConfig(8, 32)
	r := refstream.NewReplayer()
	if _, err := r.Run(st, cfg); err != nil { // warm-up: buffers grow on first use
		return 0, err
	}
	const iters = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		if _, err := r.Run(st, cfg); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / iters, nil
}

// steadyBatchAllocs is steadyReplayAllocs for RunBatch: one captured
// stream, a warmed Replayer, repeated batch passes over the standard
// grid's configuration set for one kernel, allocations amortized over
// the batch's points.
func steadyBatchAllocs() (float64, error) {
	k := loops.PaperSet()[0]
	st, err := refstream.Capture(k, 0)
	if err != nil {
		return 0, err
	}
	var cfgs []sim.Config
	for _, npe := range sweep.PaperPEs {
		for _, ps := range []int{32, 64} {
			cfg := sim.PaperConfig(npe, ps)
			cfgs = append(cfgs, cfg)
			cfg.CacheElems = 0
			cfgs = append(cfgs, cfg)
		}
	}
	r := refstream.NewReplayer()
	if _, err := r.RunBatch(st, cfgs); err != nil { // warm-up: slabs grow on first use
		return 0, err
	}
	const iters = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		if _, err := r.RunBatch(st, cfgs); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	// Each RunBatch call allocates the results slice once on top of the
	// per-config Results; that is one allocation per call, not per
	// point, so account it per call (subtract iters) to keep the
	// per-point figure comparable to the single-Run ≤5 budget.
	return float64(after.Mallocs-before.Mallocs-iters) / float64(iters*len(cfgs)), nil
}

// appendBenchHistory renders the benchmark file contents via the
// shared history package (internal/benchio): a JSON array of reports,
// oldest first, with rep appended. Writing to stdout (path == "")
// starts a fresh one-entry history.
func appendBenchHistory(path string, rep benchReport) ([]byte, error) {
	payload, err := benchio.Append(path, rep)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return payload, nil
}

// runBenchCompare implements -bench-compare: it diffs the last two
// entries of the benchmark history at path, section by section, and
// writes a human-readable report to stdout. Legacy entries — written
// before the timestamp field or the replay section existed — are
// tolerated: missing fields compare as absent rather than failing.
func runBenchCompare(path string) error {
	if path == "" {
		path = "BENCH_sweep.json"
	}
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("bench-compare: %w", err)
	}
	history, err := benchio.ReadHistory(path)
	if err != nil {
		return fmt.Errorf("bench-compare: %w", err)
	}
	if len(history) < 2 {
		return fmt.Errorf("bench-compare: %s holds %d entr%s; need at least two runs to compare (run -bench again)",
			path, len(history), map[bool]string{true: "y", false: "ies"}[len(history) == 1])
	}
	var old, cur benchReport
	if err := json.Unmarshal(history[len(history)-2], &old); err != nil {
		return fmt.Errorf("bench-compare: %s entry %d: %w", path, len(history)-1, err)
	}
	if err := json.Unmarshal(history[len(history)-1], &cur); err != nil {
		return fmt.Errorf("bench-compare: %s entry %d: %w", path, len(history), err)
	}
	fmt.Print(renderBenchCompare(path, len(history), old, cur))
	return nil
}

// benchStamp labels a history entry for the compare report.
func benchStamp(r benchReport) string {
	if r.Timestamp == "" {
		return "(no timestamp)" // legacy entry, predates stamping
	}
	return r.Timestamp
}

// benchDelta renders "old → new (±x.x%)" for a measurement where lower
// is better; sign conventions stay with the raw numbers, the percentage
// is the relative change.
func benchDelta(old, cur float64, unit string) string {
	if old == 0 {
		return fmt.Sprintf("%.4g%s → %.4g%s (no baseline)", old, unit, cur, unit)
	}
	return fmt.Sprintf("%.4g%s → %.4g%s (%+.1f%%)", old, unit, cur, unit, (cur-old)/old*100)
}

// renderBenchCompare formats the section-by-section diff of the two
// most recent history entries.
func renderBenchCompare(path string, entries int, old, cur benchReport) string {
	var b []byte
	p := func(format string, args ...any) { b = fmt.Appendf(b, format+"\n", args...) }
	p("%s: comparing entry %d (%s) with entry %d (%s)", path, entries-1, benchStamp(old), entries, benchStamp(cur))
	// A history can interleave lfksim -bench entries (suite/grid/replay
	// sections) with lfksimd -loadgen entries (serve section); diff each
	// section only between entries that measured it.
	oldSweep, curSweep := old.Grid.Points > 0, cur.Grid.Points > 0
	switch {
	case !oldSweep && !curSweep:
		// Neither entry is a sweep-benchmark run; say nothing.
	case !curSweep:
		p("suite/grid: not measured in the newer entry")
	case !oldSweep:
		p("suite/grid: new sections, no baseline (%d points, parallel %.4g sec/point)",
			cur.Grid.Points, cur.Grid.Parallel.SecPerPoint)
	default:
		p("suite:")
		p("  serial    %s", benchDelta(old.Suite.SerialSec, cur.Suite.SerialSec, "s"))
		p("  parallel  %s", benchDelta(old.Suite.ParallelSec, cur.Suite.ParallelSec, "s"))
		p("  speedup   %.2fx → %.2fx", old.Suite.Speedup, cur.Suite.Speedup)
		p("grid (%d → %d points):", old.Grid.Points, cur.Grid.Points)
		p("  serial    sec/point %s  allocs/point %s", benchDelta(old.Grid.Serial.SecPerPoint, cur.Grid.Serial.SecPerPoint, ""), benchDelta(old.Grid.Serial.AllocsPerPoint, cur.Grid.Serial.AllocsPerPoint, ""))
		p("  parallel  sec/point %s  allocs/point %s", benchDelta(old.Grid.Parallel.SecPerPoint, cur.Grid.Parallel.SecPerPoint, ""), benchDelta(old.Grid.Parallel.AllocsPerPoint, cur.Grid.Parallel.AllocsPerPoint, ""))
		p("  speedup   %.2fx → %.2fx", old.Grid.Speedup, cur.Grid.Speedup)
	}
	switch {
	case cur.Replay == nil && old.Replay == nil:
		// Neither entry measured replay; say nothing.
	case cur.Replay == nil:
		p("replay: not measured in the newer entry")
	case old.Replay == nil:
		p("replay: new section, no baseline (%d points, %d captures, %.2fx over direct, %.1f steady allocs/point)",
			cur.Replay.Points, cur.Replay.Captures, cur.Replay.Speedup, cur.Replay.SteadyAllocsPerPoint)
		if cur.Replay.Batch.Sec > 0 {
			p("  batch   %.4g sec/point, %.2fx over direct, %.1f steady allocs/point",
				cur.Replay.Batch.SecPerPoint, cur.Replay.BatchSpeedup, cur.Replay.SteadyBatchAllocsPerPoint)
		}
		if cur.Replay.BatchPar.Sec > 0 {
			p("  batch(par %dw) %.4g sec/point, %.2fx over direct",
				cur.Replay.Workers, cur.Replay.BatchPar.SecPerPoint, cur.Replay.BatchParSpeedup)
		}
	default:
		p("replay (%d → %d points, %d → %d captures):", old.Replay.Points, cur.Replay.Points, old.Replay.Captures, cur.Replay.Captures)
		p("  direct    sec/point %s", benchDelta(old.Replay.Direct.SecPerPoint, cur.Replay.Direct.SecPerPoint, ""))
		p("  replay    sec/point %s  steady allocs/point %s", benchDelta(old.Replay.Replay.SecPerPoint, cur.Replay.Replay.SecPerPoint, ""), benchDelta(old.Replay.SteadyAllocsPerPoint, cur.Replay.SteadyAllocsPerPoint, ""))
		p("  speedup   %.2fx → %.2fx", old.Replay.Speedup, cur.Replay.Speedup)
		switch {
		case cur.Replay.Batch.Sec == 0:
			// Batch leg absent in the newer entry; say nothing.
		case old.Replay.Batch.Sec == 0:
			p("  batch     new leg, no baseline (%.4g sec/point, %.2fx over direct, %.1f steady allocs/point)",
				cur.Replay.Batch.SecPerPoint, cur.Replay.BatchSpeedup, cur.Replay.SteadyBatchAllocsPerPoint)
		default:
			p("  batch     sec/point %s  steady allocs/point %s", benchDelta(old.Replay.Batch.SecPerPoint, cur.Replay.Batch.SecPerPoint, ""), benchDelta(old.Replay.SteadyBatchAllocsPerPoint, cur.Replay.SteadyBatchAllocsPerPoint, ""))
			p("  batch speedup %.2fx → %.2fx", old.Replay.BatchSpeedup, cur.Replay.BatchSpeedup)
		}
		// The parallel batch leg postdates the serial legs; entries
		// written before it simply lack the section.
		switch {
		case cur.Replay.BatchPar.Sec == 0:
			// Parallel leg absent in the newer entry; say nothing.
		case old.Replay.BatchPar.Sec == 0:
			p("  batch(par) new leg, no baseline (%d workers, %.4g sec/point, %.2fx over direct)",
				cur.Replay.Workers, cur.Replay.BatchPar.SecPerPoint, cur.Replay.BatchParSpeedup)
		default:
			p("  batch(par %d → %d workers) sec/point %s", old.Replay.Workers, cur.Replay.Workers,
				benchDelta(old.Replay.BatchPar.SecPerPoint, cur.Replay.BatchPar.SecPerPoint, ""))
			p("  batch(par) speedup %.2fx → %.2fx", old.Replay.BatchParSpeedup, cur.Replay.BatchParSpeedup)
		}
	}
	switch {
	case cur.Serve == nil && old.Serve == nil:
		// Neither entry is a serving-layer run; say nothing.
	case cur.Serve == nil:
		p("serve: not measured in the newer entry")
	case old.Serve == nil:
		p("serve: new section, no baseline (%d requests, %.0f req/s, p50 %.3fms, p99 %.3fms, hit rate %.1f%%)",
			cur.Serve.Requests, cur.Serve.RequestsPerSec, cur.Serve.P50MS, cur.Serve.P99MS, cur.Serve.CacheHitRate*100)
	default:
		p("serve (%d → %d requests):", old.Serve.Requests, cur.Serve.Requests)
		p("  throughput %s", benchDelta(old.Serve.RequestsPerSec, cur.Serve.RequestsPerSec, " req/s"))
		p("  p50 %s  p99 %s", benchDelta(old.Serve.P50MS, cur.Serve.P50MS, "ms"), benchDelta(old.Serve.P99MS, cur.Serve.P99MS, "ms"))
		p("  hit rate %.1f%% → %.1f%%, captures %d → %d",
			old.Serve.CacheHitRate*100, cur.Serve.CacheHitRate*100, old.Serve.StreamCaptures, cur.Serve.StreamCaptures)
	}
	return string(b)
}
