package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/kernelreg"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/refstream"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// gridrun.go — one run of a grid workload. The program under test is
// the sweep engine called in-process, so the harness re-executes itself
// as a child per phase: CPU time, peak RSS and set-up time then belong
// to that workload alone, and set-up can be repeated from a cold
// process.

// spawnEnv carries the parent's clock reading at spawn, so a child's
// setup_s includes exec and runtime start.
const spawnEnv = "BENCH_SPAWN_UNIX_NS"

// childReport is what a grid child prints as its last line.
type childReport struct {
	SetupS float64 `json:"setup_s"`
	Result *result `json:"result,omitempty"`
}

// runGridWorkload is one driver run of a grid workload: setup-only
// children for the set-up samples, then the measuring child.
func runGridWorkload(env *environment, w workload, seed int64, seconds float64, traced bool) (*result, error) {
	var setups []float64
	if !traced {
		for i := 1; i < setupSamples; i++ {
			rep, err := gridChild(env, w, seed, seconds, false, "setup")
			if err != nil {
				return nil, err
			}
			setups = append(setups, rep.SetupS)
		}
	}
	rep, err := gridChild(env, w, seed, seconds, traced, "measure")
	if err != nil {
		return nil, err
	}
	setups = append(setups, rep.SetupS)
	if !traced {
		rep.Result.set("setup_s", median(setups))
		env.logf("%s: setup samples %.3v s", w.Name, setups)
	}
	return rep.Result, nil
}

func gridChild(env *environment, w workload, seed int64, seconds float64, traced bool, phase string) (*childReport, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(env.self, "--phase", phase, "--workload", w.Name,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2", spawnEnv+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child of %s: %w", phase, w.Name, err)
	}
	var rep childReport
	if err := json.Unmarshal(lastLine(out), &rep); err != nil {
		return nil, fmt.Errorf("%s child of %s: bad report: %w", phase, w.Name, err)
	}
	return &rep, nil
}

// gridPhase runs inside the child.
func gridPhase(env *environment, w workload, seed int64, seconds float64, traced bool, phase string) error {
	t0 := env.start
	if ns, err := strconv.ParseInt(os.Getenv(spawnEnv), 10, 64); err == nil {
		t0 = time.Unix(0, ns)
	}
	ctx := context.Background()

	// Set-up: compile inputs, build the grid, run the warm-up op.
	reg := obs.NewRegistry()
	kreg := kernelreg.New(kernelreg.Limits{}, reg)
	pts, err := gridPoints(w.Name, kreg)
	if err != nil {
		return err
	}
	order := rotateGroups(pts, seed)
	run := make([]sweep.Point, len(pts))
	for i, j := range order {
		run[i] = pts[j]
	}
	if _, err := sweep.RunOpts(ctx, run, sweep.Options{}); err != nil {
		return fmt.Errorf("warm-up op: %w", err)
	}
	rep := childReport{SetupS: time.Since(t0).Seconds()}
	if phase == "setup" {
		return printJSON(rep)
	}

	// Output check: one op through the path under test, digested in
	// canonical grid order.
	tv := time.Now()
	want, err := readGolden(env.benchDir, w.Name)
	if err != nil {
		return err
	}
	results, err := sweep.RunOpts(ctx, run, sweep.Options{})
	if err != nil {
		return err
	}
	canon := make([]*sim.Result, len(pts))
	for i, j := range order {
		canon[j] = results[i]
	}
	dg := newDigest()
	for _, r := range canon {
		dg.addResult(r)
	}
	correct := dg.sum() == want
	if !correct {
		env.logf("%s: OUTPUT CHECK FAILED: digest %s, golden %s", w.Name, dg.sum(), want)
	}
	verifyS := time.Since(tv).Seconds()

	res := &result{Correct: correct, Metrics: map[string]value{}}
	rep.Result = res
	if traced {
		if err := tracedGrid(env, w, run, reg, seconds, verifyS, res); err != nil {
			return err
		}
		return printJSON(rep)
	}

	// The measured window is a row of slices and every timing metric is
	// the median over them: the host's speed shifts for seconds at a
	// time, and a median of slices forgets the minority that were hit.
	var slices []slice
	total := &window{}
	for i := 0; i < windowSlices; i++ {
		win, err := gridWindow(ctx, run, sweep.Options{}, secondsDur(seconds/windowSlices), nil)
		if err != nil {
			return err
		}
		slices = append(slices, win.slice())
		total.add(win.window)
	}
	res.fill(total)
	env.logf("%s: %d ops of %d points in %.2fs, %d failed; p90 %.3f ms, p99 %.3f ms; verify %.2fs",
		w.Name, total.Ops, len(run), total.WallS, total.Failed, quantile(total.LatMS, 0.9), quantile(total.LatMS, 0.99), verifyS)
	res.setTimings(slices)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	res.set("peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	res.set("setup_s", rep.SetupS)
	return printJSON(rep)
}

// rotateGroups returns a point order that keeps every capture group
// contiguous (the planner and sim.Scratch are built around kernel-major
// order) but starts at a group chosen by the seed.
func rotateGroups(pts []sweep.Point, seed int64) []int {
	var starts []int
	for i, p := range pts {
		if i == 0 || p.Kernel != pts[i-1].Kernel || p.N != pts[i-1].N {
			starts = append(starts, i)
		}
	}
	first := starts[int(uint64(seed)%uint64(len(starts)))]
	order := make([]int, 0, len(pts))
	for i := range pts {
		order = append(order, (first+i)%len(pts))
	}
	return order
}

// gridWin is a window plus the CPU the process spent in it.
type gridWin struct {
	*window
	CPUS float64
}

func (g *gridWin) slice() slice {
	return slice{PointsPerS: float64(g.Points) / g.WallS, P50MS: quantile(g.LatMS, 0.5), CPUUSPerPoint: g.CPUS * 1e6 / float64(max(g.Points, 1))}
}

func selfCPU() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// gridWindow calls sweep.RunOpts in a closed loop, one caller, until
// dur has passed.
func gridWindow(ctx context.Context, pts []sweep.Point, opts sweep.Options, dur time.Duration, tr *tracer) (*gridWin, error) {
	w := &window{}
	cpu0 := selfCPU()
	start := time.Now()
	for op := 0; time.Since(start) < dur; op++ {
		sp := tr.start("sweep.RunOpts", 0, op)
		t0 := time.Now()
		res, err := sweep.RunOpts(ctx, pts, opts)
		lat := time.Since(t0)
		tr.end(sp)
		w.Ops++
		if err != nil || len(res) != len(pts) {
			w.Failed++
			if w.FirstFail == "" {
				w.FirstFail = fmt.Sprint(err)
			}
			continue
		}
		w.LatMS = append(w.LatMS, float64(lat.Nanoseconds())/1e6)
		w.Points += int64(len(pts))
	}
	w.WallS = time.Since(start).Seconds()
	cpu := selfCPU() - cpu0
	sort.Float64s(w.LatMS)
	return &gridWin{window: w, CPUS: cpu}, nil
}

// captureGroup is one (kernel, n) group of a grid with its configs.
type captureGroup struct {
	k    *loops.Kernel
	n    int
	cfgs []sim.Config
}

func groupPoints(pts []sweep.Point) []*captureGroup {
	type key struct {
		k *loops.Kernel
		n int
	}
	idx := map[key]*captureGroup{}
	var out []*captureGroup
	for _, p := range pts {
		k := key{p.Kernel, p.Kernel.ClampN(p.N)}
		g := idx[k]
		if g == nil {
			g = &captureGroup{k: p.Kernel, n: p.N}
			idx[k] = g
			out = append(out, g)
		}
		g.cfgs = append(g.cfgs, p.Config)
	}
	return out
}

// tracedGrid is the --trace 1 pass of a grid workload. It walks the
// grid by hand on one goroutine — capture, first batch pass, second
// batch pass per group — beside spans around the real sweep.RunOpts at
// one and two workers, and checks that the rungs add up to the whole.
func tracedGrid(env *environment, w workload, pts []sweep.Point, reg *obs.Registry, seconds, verifyS float64, res *result) error {
	ctx := context.Background()
	tr := newTracer()
	groups := groupPoints(pts)

	// Untraced and traced slices alternate, so a shift in the host's
	// speed lands on both sides of the overhead figure.
	plain, win := &window{}, &window{}
	var m0, m1 runtime.MemStats
	gc0 := gcCPU()
	runtime.ReadMemStats(&m0)
	for i := 0; i < tracedSlices; i++ {
		side, t := plain, (*tracer)(nil)
		if i%2 == 1 {
			side, t = win, tr
		}
		sl, err := gridWindow(ctx, pts, sweep.Options{}, secondsDur(seconds/2/tracedSlices), t)
		if err != nil {
			return err
		}
		side.add(sl.window)
	}
	runtime.ReadMemStats(&m1)
	gc1 := gcCPU()
	res.fill(win)
	res.Attempted += plain.Ops
	res.Failed += plain.Failed
	opPoints := float64(max(win.Points+plain.Points, 1))

	// The rungs, repeated until the other half of the time is spent (at
	// least three rounds): by-hand walk, RunOpts at 1 worker, at 2. The
	// residual is taken round by round, between measurements made within
	// a second of each other, and only then reduced to a median.
	var captureUS, coldUS, warmUS, w1US, w2US, selfUS, selfShare []float64
	c0 := reg.Snapshot().Counters
	rounds := 0
	for start := time.Now(); rounds < 3 || time.Since(start) < secondsDur(seconds/2); rounds++ {
		walk := tr.start("walk", 0, rounds)
		sc := sim.NewScratch()
		rp := refstream.NewReplayer()
		var capt, cold, warm float64
		// Like the planner, the walk keeps every group's stream until the
		// grid is done; the second batch passes run after the last capture
		// so they sit outside the part that must add up to RunOpts.
		streams := make([]*refstream.Stream, len(groups))
		for i, g := range groups {
			sp := tr.start("refstream.CaptureScratch", walk, rounds)
			st, err := refstream.CaptureScratch(sc, g.k, g.n)
			capt += tr.end(sp)
			if err != nil {
				return err
			}
			streams[i] = st
			sp = tr.start("refstream.RunBatchN.cold", walk, rounds)
			_, err = rp.RunBatchN(st, g.cfgs, 1)
			cold += tr.end(sp)
			if err != nil {
				return err
			}
		}
		for i, g := range groups {
			sp := tr.start("refstream.RunBatchN.warm", walk, rounds)
			_, err := rp.RunBatchN(streams[i], g.cfgs, 1)
			warm += tr.end(sp)
			if err != nil {
				return err
			}
		}
		tr.end(walk)
		captureUS, coldUS, warmUS = append(captureUS, capt), append(coldUS, cold), append(warmUS, warm)
		for _, leg := range []struct {
			workers int
			out     *[]float64
		}{{1, &w1US}, {2, &w2US}} {
			sp := tr.start(fmt.Sprintf("sweep.RunOpts.w%d", leg.workers), 0, rounds)
			_, err := sweep.RunOpts(ctx, pts, sweep.Options{Workers: leg.workers, Metrics: reg})
			*leg.out = append(*leg.out, tr.end(sp))
			if err != nil {
				return err
			}
		}
		self := w1US[rounds] - capt - cold
		selfUS, selfShare = append(selfUS, self), append(selfShare, self/w1US[rounds])
	}
	c1 := reg.Snapshot().Counters
	if err := tr.write(filepath.Join(env.outDir, "trace-"+w.Name+".json")); err != nil {
		return err
	}

	capUS, cold, w1, w2 := median(captureUS), median(coldUS), median(w1US), median(w2US)
	res.set("sweep.run_us.w1", w1)
	res.set("sweep.run_us.w2", w2)
	res.set("sweep.capture_us", capUS)
	res.set("sweep.batch_cold_us", cold)
	res.set("sweep.capture_share", capUS/(capUS+cold))
	res.set("sweep.planner_self_us", median(selfUS))
	res.set("sweep.parallel_efficiency", w1/(2*w2))
	unattributed := math.Abs(median(selfShare))
	res.set("loadgen.unattributed_share", unattributed)
	// Registry counters cover the 2*rounds instrumented RunOpts calls.
	per := func(name string) float64 { return float64(c1[name]-c0[name]) / float64(2*rounds) }
	res.set("sweep.stream_captures", per(sweep.MetricStreamCaptures))
	res.set("sweep.replay_points", per(sweep.MetricReplayPoints))
	res.set("sweep.direct_points", per(sweep.MetricDirectPoints))
	res.set("sweep.capture_overlap", float64(c1[sweep.MetricCaptureOverlap]-c0[sweep.MetricCaptureOverlap])/float64(rounds))
	res.set(sim.MetricRuns, per(sim.MetricRuns))
	res.set(refstream.MetricBatchGroups, per(refstream.MetricBatchGroups))
	res.set(refstream.MetricBatchDecodePasses, per(refstream.MetricBatchDecodePasses))
	snapshot := reg.Snapshot()
	res.set("refstream.batch.partitions_mean", snapshot.Histograms[refstream.MetricBatchPartitions].Mean)
	for _, c := range []string{kernelreg.MetricCompiles, kernelreg.MetricCompileHits, kernelreg.MetricQuotaRejects, kernelreg.MetricEvictions} {
		res.set(c, float64(snapshot.Counters[c]))
	}

	res.set("runtime.allocs_per_point", float64(m1.Mallocs-m0.Mallocs)/opPoints)
	res.set("runtime.alloc_bytes_per_point", float64(m1.TotalAlloc-m0.TotalAlloc)/opPoints)
	res.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
	res.set("runtime.gc_pause_total_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	if total := gc1.total - gc0.total; total > 0 {
		res.set("runtime.gc_cpu_fraction", (gc1.gc-gc0.gc)/total)
	}
	res.set("loadgen.op_p90_ms", quantile(plain.LatMS, 0.90))
	res.set("loadgen.op_p99_ms", quantile(plain.LatMS, 0.99))
	res.set("loadgen.verify_s", verifyS)
	res.set("loadgen.trace_overhead_pct", 100*(quantile(win.LatMS, 0.5)/quantile(plain.LatMS, 0.5)-1))
	env.logf("%s traced: %d groups, %d rounds; capture %.0f us + batch_cold %.0f us (warm %.0f us) vs RunOpts w1 %.0f us, w2 %.0f us",
		w.Name, len(groups), rounds, capUS, cold, median(warmUS), w1, w2)
	if unattributed > maxUnattributed {
		res.Correct = false
		env.logf("%s: ladder does not reconcile: capture %.0f + batch_cold %.0f us against RunOpts %.0f us (unattributed %.3f > %.2f)",
			w.Name, capUS, cold, w1, unattributed, maxUnattributed)
	}
	return nil
}

type gcSample struct{ gc, total float64 }

// gcCPU reads the runtime's own CPU accounting.
func gcCPU() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcSample{s[0].Value.Float64(), s[1].Value.Float64()}
}
