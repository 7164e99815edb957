// Package sweep is the parallel parameter-sweep engine of the
// reproduction. The paper's whole evaluation (§6–§7) is a grid — every
// Livermore kernel × PE count × page size × cache setting — and each
// grid point is an independent counting-simulator run, so the sweep
// itself is an embarrassingly parallel loop nest: this package
// distributes it over a bounded worker pool the way the paper
// distributes loop iterations over PEs.
//
// The engine makes three guarantees:
//
//   - Determinism: results are returned in grid order — result i is
//     point i — regardless of how the scheduler interleaves workers,
//     and every result is bit-identical to a serial sim.Run of the
//     same point. Results are write-once (sim.Result): points may share
//     a result's slices, and no point's result is ever written after
//     it is returned, so sharing cannot make one point's values depend
//     on another's.
//   - Bounded concurrency: a sweep is `workers` goroutines (default
//     runtime.GOMAXPROCS(0)) and nothing else, each doing one thing at
//     a time — a capture, a classification or a direct run — so a
//     sweep of tens of thousands of points never runs more than that
//     many simulations at once. The bound is structural: there is no
//     token to count.
//   - First-error propagation: a failing point cancels the sweep's
//     context and abandons queued points at higher grid indices;
//     lower-indexed points still run, so the error reported is
//     deterministically the one at the lowest failing grid index no
//     matter which failure the scheduler reaches first.
//
// On top of the worker pool sits the execute-once/classify-many
// planner (docs/PERF.md): grid points are grouped by (kernel, problem
// size), each group's reference stream is captured once — by the
// worker that picks the group up, against that worker's reusable
// scratch — and the group is classified by the batch replayer
// (internal/refstream), so the decode work is paid once per group
// rather than once per point and the kernel's floating-point execution
// is skipped entirely. Replay results are proven bit-identical to
// direct runs, so the guarantees above are preserved; points that
// replay cannot serve (partial-fill ablations) fall back to direct
// execution per point, as do singleton groups, where a capture would
// not amortize. Within a group, configurations whose counts are
// identical by construction (sim.Config.Representative) are classified
// once: the first member takes the representative's result and every
// later one a shallow copy that shares its slices, each stamped with
// the configuration it asked for.
//
// The unit of dispatch is a chunk: a contiguous, cost-bounded slice of
// one group's configurations (refstream.Replayer.Cut). The paper's
// single-assignment pages make replay state pure per-configuration
// arithmetic, so any split of a group across workers is sound. All
// workers drain one queue: a worker takes the heaviest ready chunk if
// there is one, otherwise captures the next uncaptured group in grid
// order — which puts that group's chunks on the queue — otherwise runs
// the next direct point. A wide group therefore spreads over every
// worker, and the capture of a later group overlaps the classification
// of earlier ones (sweep.capture_overlap counts how often).
//
// See docs/SWEEP.md for grid semantics and how to build an experiment
// on the engine.
package sweep

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/refstream"
	"repro/internal/sim"
)

// Point is one grid point: a kernel, a problem size (0 = kernel
// default) and a simulator configuration.
type Point struct {
	Kernel *loops.Kernel
	N      int
	Config sim.Config
}

// String identifies the point in errors and logs.
func (p Point) String() string {
	key := "<nil>"
	if p.Kernel != nil {
		key = p.Kernel.Key
	}
	c := p.Config
	s := fmt.Sprintf("%s/n=%d/npe=%d/ps=%d/cache=%d/%s/%s",
		key, p.N, c.NPE, c.PageSize, c.CacheElems, c.Layout, c.Policy)
	if c.Layout == partition.KindBlockCyclic {
		s += fmt.Sprintf("/run=%d", c.LayoutRun)
	}
	if c.ModelPartialFill {
		s += "+partial"
	}
	return s
}

// Grid declares a cross product of sweep axes. Zero-valued axes default
// to the paper's baseline, so the zero Grid plus a kernel list is the
// paper's standard sweep.
type Grid struct {
	Kernels    []*loops.Kernel
	N          int              // problem size for every kernel (0 = kernel default)
	NPEs       []int            // default {1, 2, 4, 8, 16, 32, 64} (the paper's PE axis)
	PageSizes  []int            // default {32}
	CacheElems []int            // default {256}; 0 disables caching
	Layouts    []partition.Kind // default {KindModulo}
	Policies   []cache.Policy   // default {LRU}
}

// PaperPEs is the PE axis used by the paper's figures.
var PaperPEs = []int{1, 2, 4, 8, 16, 32, 64}

// Size returns the number of points Points would produce, without
// materializing them — front ends use it to bound a grid before
// expansion. A product past math.MaxInt reads math.MaxInt rather than
// wrapping to a small (or zero) count that would pass such a bound.
func (g Grid) Size() int {
	axis := func(n, def int) int {
		if n == 0 {
			return def
		}
		return n
	}
	size := len(g.Kernels)
	for _, n := range []int{
		axis(len(g.NPEs), len(PaperPEs)),
		axis(len(g.PageSizes), 1),
		axis(len(g.CacheElems), 1),
		axis(len(g.Layouts), 1),
		axis(len(g.Policies), 1),
	} {
		if size > math.MaxInt/n {
			return math.MaxInt
		}
		size *= n
	}
	return size
}

// Points expands the grid in deterministic order: kernels outermost,
// then NPEs, page sizes, cache sizes, layouts, policies innermost.
func (g Grid) Points() []Point {
	npes := g.NPEs
	if len(npes) == 0 {
		npes = PaperPEs
	}
	pss := g.PageSizes
	if len(pss) == 0 {
		pss = []int{32}
	}
	ces := g.CacheElems
	if len(ces) == 0 {
		ces = []int{256}
	}
	layouts := g.Layouts
	if len(layouts) == 0 {
		layouts = []partition.Kind{partition.KindModulo}
	}
	pols := g.Policies
	if len(pols) == 0 {
		pols = []cache.Policy{cache.LRU}
	}
	pts := make([]Point, 0, len(g.Kernels)*len(npes)*len(pss)*len(ces)*len(layouts)*len(pols))
	for _, k := range g.Kernels {
		for _, npe := range npes {
			for _, ps := range pss {
				for _, ce := range ces {
					for _, lay := range layouts {
						for _, pol := range pols {
							cfg := sim.PaperConfig(npe, ps)
							cfg.CacheElems = ce
							cfg.Layout = lay
							cfg.Policy = pol
							pts = append(pts, Point{Kernel: k, N: g.N, Config: cfg})
						}
					}
				}
			}
		}
	}
	return pts
}

// Options configures a sweep beyond its point list.
type Options struct {
	// Workers bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Metrics, when non-nil, receives sweep counters (points total /
	// started / done / failed — see the Metric* names) and is handed to
	// each worker's sim.Scratch for per-run signals. When nil, the
	// process-wide obs.Default() is used (itself nil — fully disabled —
	// unless a front end enabled it).
	Metrics *obs.Registry
}

// Observability counter names recorded by sweeps. Totals are added when
// a sweep starts, so Done+Failed converging on Total is the live
// completion signal a front end can render.
const (
	MetricPointsTotal   = "sweep.points_total"
	MetricPointsStarted = "sweep.points_started"
	MetricPointsDone    = "sweep.points_done"
	MetricPointsFailed  = "sweep.points_failed"

	// Planner counters: captures performed (once per replay group),
	// points served by stream replay, the distinct configurations
	// classified to serve them (one per representative — see
	// sim.Config.Representative), and points run directly.
	MetricStreamCaptures  = "sweep.stream_captures"
	MetricReplayPoints    = "sweep.replay_points"
	MetricDistinctConfigs = "sweep.distinct_configs"
	MetricDirectPoints    = "sweep.direct_points"

	// MetricCaptureOverlap counts captures that finished while another
	// worker was classifying a chunk or running a direct point — each
	// one is a capture the queue kept off the critical path. Zero at
	// one worker: there is nobody to overlap with.
	MetricCaptureOverlap = "sweep.capture_overlap"
)

// replayGroup is one (kernel, problem size) replay group: the points
// that share a reference stream. Only one representative of each set
// of count-identical configurations (sim.Config.Representative) is
// classified; its result is handed to every member. The worker that
// takes the group off the queue captures it; afterwards the stream is
// shared read-only by every worker that classifies one of the group's
// chunks.
type replayGroup struct {
	kernel *loops.Kernel
	n      int // as given by the first member (Capture clamps internally)

	// cfgs are the distinct representatives in order of first
	// occurrence; members[j] are the grid indices cfgs[j] stands for,
	// ascending. So members[j][0] ascends in j, and members[0][0] is
	// the group's lowest grid index.
	cfgs    []sim.Config
	members [][]int

	// Set by the capturing worker before the group's chunks are queued.
	st *refstream.Stream

	// left counts the chunks not yet classified (guarded by queue.mu).
	// When the last chunk of a group that was cut in several is done the
	// queue drops the stream: a group is cut because its stream is long,
	// a long stream and its decoded views are the largest thing a sweep
	// holds, and with every worker busy the collector has no idle core
	// to keep up on. One-chunk groups keep theirs until the sweep
	// returns, as every group used to: on a grid of many short streams
	// (grid_nscale) dropping them too shrinks the live heap so far that
	// the collector runs five times as often and the sweep a fifth
	// slower.
	left int
	long bool // cut into more than one chunk
}

// first is the group's lowest grid index: a failed capture is blamed
// on it, and a group wholly above the lowest failing index is skipped.
func (g *replayGroup) first() int { return g.members[0][0] }

// chunk is the unit of dispatch for replayed points: representatives
// [lo, hi) of a captured group, with the cost estimate the queue orders
// by.
type chunk struct {
	g      *replayGroup
	lo, hi int
	cost   int64
}

// minIdx is the lowest grid index the chunk covers — its first
// representative's first member, representatives being in order of
// first occurrence: a chunk wholly above the lowest failing index so
// far is skipped.
func (c chunk) minIdx() int { return c.g.members[c.lo][0] }

// planReplay assigns each point to a replay group, or nil for direct
// execution. Grouping is by (kernel, clamped problem size) — exactly
// the key the reference stream depends on — and within a group by
// representative configuration. Only keys with at least two eligible
// points get a group: a singleton would pay capture — an instrumented
// direct run — without amortizing it.
func planReplay(pts []Point) []*replayGroup {
	plan := make([]*replayGroup, len(pts))
	type key struct {
		k *loops.Kernel
		n int
	}
	type repKey struct {
		g   *replayGroup
		cfg sim.Config
	}
	groups := make(map[key]*replayGroup)
	reps := make(map[repKey]int) // index into g.cfgs
	counts := make(map[key]int)
	for _, p := range pts {
		if p.Kernel == nil || !refstream.Eligible(p.Config) {
			continue
		}
		counts[key{p.Kernel, p.Kernel.ClampN(p.N)}]++
	}
	for i, p := range pts {
		if p.Kernel == nil || !refstream.Eligible(p.Config) {
			continue
		}
		k := key{p.Kernel, p.Kernel.ClampN(p.N)}
		if counts[k] < 2 {
			continue
		}
		g := groups[k]
		if g == nil {
			g = &replayGroup{kernel: p.Kernel, n: p.N}
			groups[k] = g
		}
		rk := repKey{g, p.Config.Representative()}
		j, ok := reps[rk]
		if !ok {
			j = len(g.cfgs)
			reps[rk] = j
			g.cfgs = append(g.cfgs, rk.cfg)
			g.members = append(g.members, nil)
		}
		g.members[j] = append(g.members[j], i)
		plan[i] = g
	}
	return plan
}

// planTasks turns the per-point replay plan into what the queue starts
// with: the replay groups, in grid order of their first member — the
// order they are captured in — and the grid indices of the points that
// run directly, ascending.
func planTasks(pts []Point) (groups []*replayGroup, direct []int) {
	for i, g := range planReplay(pts) {
		if g == nil {
			direct = append(direct, i)
		} else if g.first() == i {
			groups = append(groups, g)
		}
	}
	return groups, direct
}

// RunOpts sweeps the points over a pool of opts.Workers goroutines
// (<= 0 means runtime.GOMAXPROCS(0)) and returns the results in grid
// order: results[i] is the simulation of pts[i]. Each worker reuses one
// sim.Scratch across its points. On failure the lowest-index error is
// returned and the remaining queued points are abandoned; on external
// cancellation the context error is returned. opts.Metrics receives the
// live sweep.points_* counters; the instrumentation observes without
// participating — results do not depend on any Options field.
func RunOpts(ctx context.Context, pts []Point, opts Options) ([]*sim.Result, error) {
	s := newRun(pts, opts)
	if err := runQueue(ctx, opts.Workers, s.groups, s.direct, s.reg.Counter(MetricCaptureOverlap), s.worker); err != nil {
		return nil, err
	}
	return s.results, nil
}

// run is the state one RunOpts call shares between its workers: the
// plan, the result slots (each written by exactly one worker) and the
// accounting.
type run struct {
	pts     []Point
	groups  []*replayGroup
	direct  []int
	results []*sim.Result

	reg *obs.Registry

	cStarted, cDone, cFailed, cCaptures, cReplay, cDistinct, cDirect *obs.Counter
}

func newRun(pts []Point, opts Options) *run {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	s := &run{
		pts:       pts,
		results:   make([]*sim.Result, len(pts)),
		reg:       reg,
		cStarted:  reg.Counter(MetricPointsStarted),
		cDone:     reg.Counter(MetricPointsDone),
		cFailed:   reg.Counter(MetricPointsFailed),
		cCaptures: reg.Counter(MetricStreamCaptures),
		cReplay:   reg.Counter(MetricReplayPoints),
		cDistinct: reg.Counter(MetricDistinctConfigs),
		cDirect:   reg.Counter(MetricDirectPoints),
	}
	reg.Counter(MetricPointsTotal).Add(int64(len(pts)))
	s.groups, s.direct = planTasks(pts)
	return s
}

// started and done account n points; failed accounts the one point a
// failure is blamed on and returns the error the sweep reports for it.
// A chunk's points start together, so after a failing chunk
// points_started stays ahead of points_done + points_failed by the
// chunk's other points — and by nothing else: chunks and points skipped
// by the cut never start.
func (s *run) started(n int) { s.cStarted.Add(int64(n)) }

func (s *run) done(n int) { s.cDone.Add(int64(n)) }

func (s *run) failed(i int, err error) error {
	s.cFailed.Inc()
	return fmt.Errorf("sweep: point %d (%s): %w", i, s.pts[i], err)
}

// worker builds one queue worker: a sim.Scratch and a
// refstream.Replayer owned by the calling goroutine for the whole
// sweep, and the three things the queue asks of it.
func (s *run) worker(context.Context) worker {
	scratch := sim.NewScratch()
	scratch.Metrics = s.reg
	replayer := refstream.NewReplayer()
	replayer.Metrics = s.reg
	var stage []*sim.Result // a chunk's results before they scatter to grid order

	return worker{
		// capture records the group's reference stream and cuts the group
		// into chunks. A capture that fails is the failure of the group's
		// first member.
		capture: func(g *replayGroup) ([]chunk, error) {
			s.cCaptures.Inc()
			st, err := refstream.CaptureScratch(scratch, g.kernel, g.n)
			if err != nil {
				s.started(1)
				return nil, s.failed(g.first(), err)
			}
			g.st = st
			cut := replayer.Cut(st, g.cfgs)
			chunks := make([]chunk, len(cut))
			for j, c := range cut {
				chunks[j] = chunk{g: g, lo: c.Lo, hi: c.Hi, cost: c.Cost}
			}
			return chunks, nil
		},

		// classify serves one chunk's representatives from its group's
		// stream and scatters each result to every member it stands for.
		// On failure the blamed index is the failing representative's
		// first member — RunChunk reports the lowest position in the
		// chunk, and representatives are in order of first occurrence —
		// so lowest-index error semantics match the per-point path
		// exactly.
		classify: func(c chunk) (int, error) {
			g, n := c.g, c.hi-c.lo
			points := 0
			for _, m := range g.members[c.lo:c.hi] {
				points += len(m)
			}
			s.started(points)
			fi := c.minIdx()
			if cap(stage) < n {
				stage = make([]*sim.Result, n)
			}
			out := stage[:n]
			err := replayer.RunChunk(g.st, g.cfgs[c.lo:c.hi], out)
			if err == nil {
				for j, res := range out {
					s.scatter(res, g.members[c.lo+j])
				}
				clear(out)
			}
			s.cReplay.Add(int64(points))
			s.cDistinct.Add(int64(n))
			if err == nil {
				s.done(points)
				return fi, nil
			}
			var be *refstream.BatchError
			if errors.As(err, &be) {
				fi = g.members[c.lo+be.Index][0]
				err = be.Err
			}
			return fi, s.failed(fi, err)
		},

		// retire drops the scratch: after a long capture its value slabs
		// and event columns are megabytes, and a worker that will only
		// classify from here on should not hold them to the end of the
		// sweep.
		retire: func() { scratch = nil },

		// point runs one grid point directly.
		point: func(i int) error {
			s.started(1)
			p := s.pts[i]
			if p.Kernel == nil {
				return s.failed(i, errors.New("nil kernel"))
			}
			res, err := scratch.Run(p.Kernel, p.N, p.Config)
			s.cDirect.Inc()
			if err != nil {
				return s.failed(i, err)
			}
			s.results[i] = res
			s.done(1)
			return nil
		},
	}
}

// scatter hands a representative's result to every member it stands
// for. Each member gets back the configuration it asked for: the first
// takes res itself, and every later one a shallow copy that shares
// res's slices — one allocation, sound because a Result is write-once.
func (s *run) scatter(res *sim.Result, members []int) {
	res.Config = s.pts[members[0]].Config
	s.results[members[0]] = res
	for _, i := range members[1:] {
		c := *res
		c.Config = s.pts[i].Config
		s.results[i] = &c
	}
}

// worker is what one goroutine of the queue does with each kind of
// item. A failure is blamed on a grid index: the group's first member
// for a capture, the index classify returns for a chunk, the point's
// own for a direct run. retire, when set, is called once no capture or
// direct run is left for anyone: only classify follows.
type worker struct {
	capture  func(g *replayGroup) ([]chunk, error)
	classify func(c chunk) (blame int, err error)
	point    func(i int) error
	retire   func()
}

// queue is the one scheduler of the package: the items of a sweep and
// what its workers need to agree on. Everything is guarded by mu; the
// work itself runs with mu released.
type queue struct {
	mu   sync.Mutex
	wake sync.Cond // a capture finished: its chunks are ready, or it was the last

	ready  []chunk        // chunks of captured groups, heaviest first
	groups []*replayGroup // uncaptured groups, grid order
	direct []int          // direct points not yet run, ascending

	capturing int // captures in flight: their chunks are still to come
	busy      int // workers classifying a chunk or running a direct point

	// The failure at the lowest blamed grid index so far. Items wholly
	// above errIdx are skipped; items reaching below it still run (one
	// of them may fail and become the new winner), which keeps the
	// reported error the lowest-index failure regardless of scheduling.
	err    error
	errIdx int

	parent  context.Context
	cancel  context.CancelFunc
	overlap *obs.Counter
}

// runQueue executes the groups and direct points on `workers`
// goroutines (workers <= 0 means runtime.GOMAXPROCS(0)) draining one
// queue. newWorker is called once per goroutine to build its state; it
// receives the queue's context, which is canceled on the first error
// or when the parent is canceled. The error at the lowest blamed index
// wins deterministically; cancellation of the parent abandons
// everything and is returned as is.
func runQueue(parent context.Context, workers int, groups []*replayGroup, direct []int, overlap *obs.Counter, newWorker func(context.Context) worker) error {
	items := len(direct)
	for _, g := range groups {
		items += len(g.cfgs)
	}
	if items == 0 {
		return parent.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	q := &queue{groups: groups, direct: direct, errIdx: math.MaxInt, parent: parent, cancel: cancel, overlap: overlap}
	q.wake.L = &q.mu

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			q.drain(newWorker(ctx))
		}()
	}
	wg.Wait()

	if err := parent.Err(); err != nil {
		return err
	}
	return q.err
}

// drain is one worker's loop: the heaviest ready chunk if there is
// one, else the capture of the next group in grid order, else the next
// direct point; when only captures in flight can still produce work,
// wait for one to finish.
func (q *queue) drain(w worker) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.parent.Err() == nil {
		if w.retire != nil && len(q.groups) == 0 && len(q.direct) == 0 {
			w.retire()
			w.retire = nil
		}
		switch {
		case len(q.ready) > 0:
			c := q.ready[0]
			q.ready = q.ready[1:]
			if c.minIdx() > q.errIdx {
				continue
			}
			q.busy++
			q.mu.Unlock()
			i, err := w.classify(c)
			q.mu.Lock()
			q.busy--
			q.fail(i, err)
			if c.g.left--; c.g.left == 0 && c.g.long {
				c.g.st = nil
			}

		case len(q.groups) > 0:
			g := q.groups[0]
			q.groups = q.groups[1:]
			if g.first() > q.errIdx {
				continue
			}
			q.capturing++
			q.mu.Unlock()
			chunks, err := w.capture(g)
			q.mu.Lock()
			q.capturing--
			q.fail(g.first(), err)
			if q.busy > 0 {
				q.overlap.Inc()
			}
			g.left, g.long = len(chunks), len(chunks) > 1
			q.ready = append(q.ready, chunks...)
			slices.SortStableFunc(q.ready, func(a, b chunk) int { return cmp.Compare(b.cost, a.cost) })
			q.wake.Broadcast()

		case len(q.direct) > 0:
			i := q.direct[0]
			q.direct = q.direct[1:]
			if i > q.errIdx {
				q.direct = nil // ascending: the rest are above the cut too
				continue
			}
			q.busy++
			q.mu.Unlock()
			err := w.point(i)
			q.mu.Lock()
			q.busy--
			q.fail(i, err)

		case q.capturing > 0:
			q.wake.Wait()

		default:
			return
		}
	}
}

// fail records a failure blamed on grid index i and cancels the
// workers' context. Called with mu held; a nil err is not a failure.
func (q *queue) fail(i int, err error) {
	if err == nil {
		return
	}
	if i < q.errIdx {
		q.err, q.errIdx = err, i
	}
	q.cancel()
}

// Map applies f to every item over a bounded worker pool and returns
// the outputs in input order. It is the experiment-level counterpart of
// RunOpts, on the same queue with every item a direct point: f(ctx, i,
// item) runs concurrently with at most runtime.GOMAXPROCS(0) calls in
// flight; the first error (lowest index) cancels the pool's context and
// is returned.
func Map[T, R any](ctx context.Context, items []T, f func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	idxs := make([]int, len(items))
	for i := range idxs {
		idxs[i] = i
	}
	err := runQueue(ctx, 0, nil, idxs, nil, func(ctx context.Context) worker {
		return worker{point: func(i int) error {
			r, err := f(ctx, i, items[i])
			if err != nil {
				return err
			}
			out[i] = r
			return nil
		}}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
