package serve

// engine.go — the execution core of the service. A request becomes one
// or more canonical points (api.go), and every request takes one path
// (DoSweep): each point is answered from the bounded result table,
// which holds answered and in-flight points alike (so identical
// concurrent points are executed once), and otherwise executed on a
// shared worker pool whose workers reuse a sim.Scratch and a
// refstream.Replayer, with
// reference-stream captures shared across requests through a
// refstream.Cache keyed by (kernel, N). The result is the service-level
// form of the sweep planner's execute-once/classify-many guarantee: a
// burst of a million identical requests costs one capture, one replay
// and N-1 cache hits.
//
// Every stage of that path is individually observable: the engine
// feeds the serve.stage.* histograms (admission wait, cache lookup,
// singleflight wait, capture, replay/direct execution, encode) and,
// when the request carries an obs/trace.Trace on its context, records
// the same stages as parent/child spans. Instrumentation observes and
// never participates — response bodies are byte-identical with and
// without a trace attached (pinned by tests).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/kernelreg"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/refstream"
	"repro/internal/sim"
)

// Observability names recorded by the service. Counters/gauges are
// registered on the engine's registry; see docs/SERVING.md for the
// full signal list and docs/OBSERVABILITY.md for the histogram bucket
// families.
const (
	MetricClassifyRequests = "serve.classify_requests"
	MetricSweepRequests    = "serve.sweep_requests"
	MetricCompileRequests  = "serve.compile_requests"
	MetricRejected         = "serve.rejected"          // admissions refused → 429
	MetricBadRequests      = "serve.bad_requests"      // validation failures → 400
	MetricDeadlineExceeded = "serve.deadline_exceeded" // → 504

	MetricCacheHits   = "serve.cache_hits"   // points answered from the result cache
	MetricCacheMisses = "serve.cache_misses" // points that had to execute (or join a flight)
	MetricDedupWaits  = "serve.dedup_waits"  // points that joined an identical in-flight point

	MetricPointsExecuted = "serve.points_executed" // simulator/replayer executions
	MetricStreamCaptures = "serve.stream_captures" // reference-stream captures performed
	MetricStreamHits     = "serve.stream_hits"     // captures avoided by the stream cache

	MetricQueueDepth = "serve.queue_depth" // gauge: tasks queued for the worker pool
	MetricInflight   = "serve.inflight"    // gauge: admitted requests

	MetricClassifyLatencyUS = "serve.classify_latency_us" // histogram (obs.MicrosBuckets)
	MetricSweepLatencyUS    = "serve.sweep_latency_us"    // histogram (obs.MicrosBuckets)
	MetricCompileLatencyUS  = "serve.compile_latency_us"  // histogram (obs.MicrosBuckets)

	// MetricBuildInfo is the gauge-style build marker: constant 1 while
	// the process serves; the version/revision details ride GET /healthz.
	MetricBuildInfo = "build.info"
)

// Per-stage latency histograms (all obs.MicrosBuckets): the request
// path decomposed, feeding real server-side p50/p99/p999 per stage.
// Stage span names in a trace are the metric's last segment without
// the unit suffix (e.g. "cache_lookup").
const (
	MetricStageDecodeUS      = "serve.stage.decode_us"       // body decode + canonicalization
	MetricStageAdmitWaitUS   = "serve.stage.admit_wait_us"   // admission-slot acquisition
	MetricStageCacheLookupUS = "serve.stage.cache_lookup_us" // result-cache lookup (per classify, per sweep grid)
	MetricStageFlightWaitUS  = "serve.stage.flight_wait_us"  // enqueue + singleflight wait until resolution
	MetricStageCaptureUS     = "serve.stage.capture_us"      // reference-stream fetch/capture (stream-cache hit or miss)
	MetricStageReplayUS      = "serve.stage.replay_us"       // replayer RunBatchN pass
	MetricStageDirectUS      = "serve.stage.direct_us"       // direct simulator run (partial-fill ablation)
	MetricStageEncodeUS      = "serve.stage.encode_us"       // result → canonical JSON body
	MetricStageCompileUS     = "serve.stage.compile_us"      // registry compile pipeline (parse → verify → register)
)

// Errors surfaced by Engine.DoSweep and Engine admission; the HTTP layer
// maps them onto status codes.
var (
	// ErrOverloaded reports that the admission queue is full (HTTP 429).
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrClosed reports a request against a closed engine (HTTP 503).
	ErrClosed = errors.New("serve: engine closed")
)

// Options configures a Server and its Engine. The zero value serves
// with defaults sized from GOMAXPROCS.
type Options struct {
	// Workers bounds the execution pool; <= 0 means GOMAXPROCS.
	Workers int
	// MaxInflight bounds admitted (in-flight) requests; a request beyond
	// the bound is rejected with 429 rather than queued unboundedly.
	// <= 0 means 4×Workers.
	MaxInflight int
	// ResultCacheEntries bounds the result table: encoded point bodies
	// and points still executing alike (<= 0 means 4096).
	ResultCacheEntries int
	// StreamCacheEntries bounds the shared reference-stream cache
	// (<= 0 means refstream.DefaultCacheEntries).
	StreamCacheEntries int
	// MaxSweepPoints bounds the grid one sweep request may expand to
	// (<= 0 means 4096); the other per-request bounds are the maxN,
	// maxNPE, maxPageSize and maxCacheElems constants.
	MaxSweepPoints int
	// DefaultDeadline is the per-request deadline when the request does
	// not set deadline_ms. <= 0 derives it per request from the
	// machine's deadlock-watchdog rule (machine.DefaultDeadline over the
	// request's largest NPE and problem size) — the same scaling
	// Config.DeadlockTimeout uses for its zero value.
	DefaultDeadline time.Duration
	// Metrics receives the service's signals; nil falls back to
	// obs.Default() (disabled unless a front end enabled it).
	Metrics *obs.Registry
	// AccessLog receives one structured JSON line per /v1/classify and
	// /v1/sweep request (request ID, route, status, cache behavior,
	// per-stage timings). nil selects os.Stderr; io.Discard disables.
	AccessLog io.Writer
	// CaptureStore, when set, backs the in-memory stream cache with a
	// durable tier: cache misses consult it before executing a capture,
	// and fresh captures are persisted to it. Shards of a cluster point
	// this at a shared internal/refstream/store directory so a restart
	// warm-starts instead of re-executing.
	CaptureStore CaptureStore
	// Registry is the compiled-kernel registry behind POST /v1/compile
	// and "u:" kernel resolution. nil makes New construct one with
	// default kernelreg.Limits on Metrics; leave it nil unless sharing
	// a registry (the cluster router shares its local server's) or
	// customizing limits.
	Registry *kernelreg.Registry
}

// CaptureStore is the durable tier behind the engine's stream cache —
// implemented by internal/refstream/store, kept as an interface here
// so the serving layer never touches the filesystem itself.
// Implementations must be safe for concurrent use.
type CaptureStore interface {
	// Load returns the persisted stream for (k, n), if any.
	Load(k *loops.Kernel, n int) (*refstream.Stream, bool)
	// Save persists a freshly-executed capture. Best-effort: errors are
	// the implementation's to count and swallow.
	Save(st *refstream.Stream)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4 * o.Workers
	}
	if o.ResultCacheEntries <= 0 {
		o.ResultCacheEntries = 4096
	}
	if o.MaxSweepPoints <= 0 {
		o.MaxSweepPoints = 4096
	}
	if o.Metrics == nil {
		o.Metrics = obs.Default()
	}
	return o
}

func (o Options) limits() limits {
	return limits{maxSweepPoints: o.MaxSweepPoints, reg: o.Registry}
}

// task is one unit of worker-pool execution: the points of one
// (kernel, problem size, direct) that one request must execute itself.
// The worker captures (or cache-fetches) their reference stream once
// and classifies every point in a single batch pass
// (refstream.Replayer.RunBatchN); a /v1/classify miss is a task of one
// point. Points keep their individual result-table entries, so
// concurrent requests join and are answered byte-identically. tr/parent
// carry the submitting request's trace so worker-side stages (capture,
// replay, encode) appear as children of its singleflight wait; both are
// nil-safe.
type task struct {
	kernel *loops.Kernel
	n      int
	pts    []point
	keys   []string
	fls    []*flight
	// direct marks points that model partial page fills: replay cannot
	// serve them, so they run on the simulator.
	direct bool
	tr     *trace.Trace
	parent trace.SpanRef
}

// Engine executes canonical points with caching, deduplication,
// admission control and graceful drain. Create one with newEngine (via
// serve.New); an Engine must be Closed to release its workers.
type Engine struct {
	opts Options
	reg  *obs.Registry

	cHits, cMisses, cDedup *obs.Counter
	cRejected, cPoints     *obs.Counter
	gQueue, gInflight      *obs.Gauge

	// Per-stage latency histograms; see the MetricStage* constants.
	hDecode, hAdmit, hCacheLookup, hFlightWait *obs.Histogram
	hCapture, hReplay, hDirect, hEncode        *obs.Histogram
	hCompile                                   *obs.Histogram

	results *resultTable
	streams *refstream.Cache
	tasks   chan *task

	stateMu  sync.Mutex
	closed   bool
	inflight int            // admitted requests; the source of truth (gInflight mirrors it)
	reqWG    sync.WaitGroup // admitted requests
	workWG   sync.WaitGroup // pool workers
	closeMu  sync.Mutex     // serializes Close

	// execHook, when non-nil, runs on the worker goroutine immediately
	// before each point executes. Test seam for pinning workers.
	execHook func()
}

func newEngine(opts Options) *Engine {
	opts = opts.withDefaults()
	reg := opts.Metrics
	if opts.Registry == nil {
		opts.Registry = kernelreg.New(kernelreg.Limits{}, reg)
	}
	e := &Engine{
		opts:         opts,
		reg:          reg,
		cHits:        reg.Counter(MetricCacheHits),
		cMisses:      reg.Counter(MetricCacheMisses),
		cDedup:       reg.Counter(MetricDedupWaits),
		cRejected:    reg.Counter(MetricRejected),
		cPoints:      reg.Counter(MetricPointsExecuted),
		gQueue:       reg.Gauge(MetricQueueDepth),
		gInflight:    reg.Gauge(MetricInflight),
		hDecode:      reg.Histogram(MetricStageDecodeUS, obs.MicrosBuckets),
		hAdmit:       reg.Histogram(MetricStageAdmitWaitUS, obs.MicrosBuckets),
		hCacheLookup: reg.Histogram(MetricStageCacheLookupUS, obs.MicrosBuckets),
		hFlightWait:  reg.Histogram(MetricStageFlightWaitUS, obs.MicrosBuckets),
		hCapture:     reg.Histogram(MetricStageCaptureUS, obs.MicrosBuckets),
		hReplay:      reg.Histogram(MetricStageReplayUS, obs.MicrosBuckets),
		hDirect:      reg.Histogram(MetricStageDirectUS, obs.MicrosBuckets),
		hEncode:      reg.Histogram(MetricStageEncodeUS, obs.MicrosBuckets),
		hCompile:     reg.Histogram(MetricStageCompileUS, obs.MicrosBuckets),
		results:      newResultTable(opts.ResultCacheEntries),
		streams:      refstream.NewCache(opts.StreamCacheEntries),
		tasks:        make(chan *task, opts.MaxInflight),
	}
	e.streams.Captures = reg.Counter(MetricStreamCaptures)
	e.streams.Hits = reg.Counter(MetricStreamHits)
	if s := opts.CaptureStore; s != nil {
		e.streams.Loader = s.Load
		e.streams.Saver = s.Save
	}
	for w := 0; w < opts.Workers; w++ {
		e.workWG.Add(1)
		go e.worker()
	}
	return e
}

// admit reserves an in-flight request slot. It returns a release
// function on success; ErrOverloaded when MaxInflight requests are
// already admitted; ErrClosed after Close began.
func (e *Engine) admit() (release func(), err error) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if e.inflight >= e.opts.MaxInflight {
		e.cRejected.Inc()
		return nil, ErrOverloaded
	}
	e.inflight++
	e.reqWG.Add(1)
	e.gInflight.Add(1)
	return func() {
		e.stateMu.Lock()
		e.inflight--
		e.stateMu.Unlock()
		e.gInflight.Add(-1)
		e.reqWG.Done()
	}, nil
}

// DoSweep answers canonical points, in order: a /v1/classify request
// is one point, a /v1/sweep its grid. Each point is a result-table
// hit, a join of an identical in-flight point, or a lead this request
// must execute — so sweep and classify bodies stay interchangeable
// bit-for-bit and concurrent identical work is joined, not repeated.
// Leads are bucketed by (kernel, problem size, partial fill) and
// submitted to the pool as tasks, one capture and one stream pass per
// bucket; a partial-fill point runs on the simulator. Callers must
// hold an admission slot (see admit); the HTTP handlers do. The error
// of the lowest-index failing point wins; on context expiry DoSweep
// returns ctx.Err() while queued work still completes and populates
// the table for the next request. A trace on ctx (trace.FromContext)
// receives cache_lookup and flight_wait spans plus cache-outcome
// counts; execution stages land on the leader's trace from the worker.
func (e *Engine) DoSweep(ctx context.Context, pts []point) ([]json.RawMessage, error) {
	tr := trace.FromContext(ctx)
	bodies := make([]json.RawMessage, len(pts))
	var fls []*flight // per point, made at the first miss; nil = served from the table
	var leaders []int // points whose flight this request must execute
	sp := tr.Start("cache_lookup")
	for i, p := range pts {
		fl, out := e.results.lookup(p.key())
		if out == hit {
			e.cHits.Inc()
			tr.Count("cache_hits", 1)
			bodies[i] = fl.body
			continue
		}
		e.cMisses.Inc()
		tr.Count("cache_misses", 1)
		if out == lead {
			leaders = append(leaders, i)
		} else {
			e.cDedup.Inc()
			tr.Count("dedup_waits", 1)
		}
		if fls == nil {
			fls = make([]*flight, len(pts))
		}
		fls[i] = fl
	}
	e.hCacheLookup.Observe(sp.End().Microseconds())
	if fls == nil {
		return bodies, nil
	}

	// Bucket the leaders into tasks by capture group, preserving input
	// order within each bucket (RunBatchN blames the lowest input index,
	// so input order in = lowest index blamed).
	wsp := tr.Start("flight_wait")
	type groupKey struct {
		kernel *loops.Kernel
		n      int
		direct bool
	}
	groups := map[groupKey]*task{}
	var queue []*task
	for _, i := range leaders {
		p := pts[i]
		gk := groupKey{p.kernel, p.n, !refstream.Eligible(p.cfg)}
		t := groups[gk]
		if t == nil {
			t = &task{kernel: p.kernel, n: p.n, direct: gk.direct, tr: tr, parent: wsp}
			groups[gk] = t
			queue = append(queue, t)
		}
		t.pts = append(t.pts, p)
		t.keys = append(t.keys, p.key())
		t.fls = append(t.fls, fls[i])
	}

	for qi, t := range queue {
		select {
		case e.tasks <- t:
			e.gQueue.Add(1)
			continue
		case <-ctx.Done():
		}
		// Never enqueued: settle the remaining flights ourselves so
		// joined waiters are not stranded.
		for _, t := range queue[qi:] {
			e.resolve(t, nil, ctx.Err())
		}
		break
	}

	// Collect in input order; scanning in order makes the first error
	// seen the lowest-index failure. Every exit, context expiry
	// included, observes the wait.
	var err error
collect:
	for i, fl := range fls {
		if fl == nil {
			continue
		}
		select {
		case <-fl.done:
		case <-ctx.Done():
			err = ctx.Err()
			break collect
		}
		if err = fl.err; err != nil {
			break
		}
		bodies[i] = fl.body
	}
	e.hFlightWait.Observe(wsp.End().Microseconds())
	if err != nil {
		return nil, err
	}
	return bodies, nil
}

// resolve settles every point of t in the result table: each flight
// resolves with its body, or fails with err and leaves the table. A
// task that never reached the pool (context expiry before enqueue) is
// resolved with the context's error, so joined waiters are not
// stranded.
func (e *Engine) resolve(t *task, bodies [][]byte, err error) {
	for i, key := range t.keys {
		var body []byte
		if err == nil {
			body = bodies[i]
		}
		e.results.settle(key, t.fls[i], body, err)
	}
}

// worker executes queued tasks, reusing one scratch simulator and one
// replayer for its lifetime.
func (e *Engine) worker() {
	defer e.workWG.Done()
	scratch := sim.NewScratch()
	scratch.Metrics = e.reg
	replayer := refstream.NewReplayer()
	replayer.Metrics = e.reg
	for t := range e.tasks {
		e.gQueue.Add(-1)
		if e.execHook != nil {
			e.execHook()
		}
		bodies, err := e.execute(scratch, replayer, t)
		e.resolve(t, bodies, err)
	}
}

// execute runs one task: fetch the group's stream and classify every
// point in one pass on this worker, or, for a direct task, run its
// points on the simulator (the partial-fill ablation). Every body goes through the
// same encodePoint, so a sweep-produced body is byte-identical to the
// classify-produced body of the same point. On failure the error is
// attributed to the point RunBatchN blamed (the lowest input index),
// keeping sweep error reporting deterministic. Each stage feeds its
// histogram and, when the task carries a trace, a child span under the
// requester's flight_wait.
func (e *Engine) execute(scratch *sim.Scratch, replayer *refstream.Replayer, t *task) ([][]byte, error) {
	var (
		res    []*sim.Result
		engine = "replay"
		err    error
	)
	if t.direct {
		sp := t.tr.StartChild(t.parent, "direct")
		res, engine = make([]*sim.Result, len(t.pts)), "direct"
		for i := 0; i < len(t.pts) && err == nil; i++ {
			if res[i], err = runDirect(scratch, t.pts[i]); err != nil {
				err = &refstream.BatchError{Index: i, Err: err}
			}
		}
		e.hDirect.Observe(sp.End().Microseconds())
	} else {
		sp := t.tr.StartChild(t.parent, "capture")
		var st *refstream.Stream
		st, err = e.streams.GetScratch(scratch, t.kernel, t.n)
		e.hCapture.Observe(sp.End().Microseconds())
		if err == nil {
			cfgs := make([]sim.Config, len(t.pts))
			for i, p := range t.pts {
				cfgs[i] = p.cfg
			}
			t.tr.Event(t.parent, "batch_configs", int64(len(cfgs)), "configs")
			sp = t.tr.StartChild(t.parent, "replay")
			res, err = replayer.RunBatchN(st, cfgs, 1)
			e.hReplay.Observe(sp.End().Microseconds())
		}
	}
	if err != nil {
		blame := 0
		var be *refstream.BatchError
		if errors.As(err, &be) {
			blame = be.Index
			err = be.Err
		}
		return nil, fmt.Errorf("point %s: %w", t.keys[blame], err)
	}
	e.cPoints.Add(int64(len(t.pts)))
	sp := t.tr.StartChild(t.parent, "encode")
	bodies := make([][]byte, len(t.pts))
	for i, p := range t.pts {
		if bodies[i], err = encodePoint(p, engine, res[i]); err != nil {
			break
		}
	}
	e.hEncode.Observe(sp.End().Microseconds())
	return bodies, err
}

// runDirect executes a direct simulation with panic containment: a
// registry-compiled kernel can reach an out-of-bounds subscript
// through data-dependent indirection at a (size, config) combination
// the compile-time verification did not run, and that must fail the
// one point, not the worker (the capture path has the same guard
// inside refstream.CaptureScratch).
func runDirect(scratch *sim.Scratch, p point) (res *sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("serve: direct run of %s/n=%d panicked: %v", p.kernel.Key, p.n, r)
		}
	}()
	return scratch.Run(p.kernel, p.n, p.cfg)
}

// Registry exposes the compiled-kernel registry (always non-nil on an
// engine built by New).
func (e *Engine) Registry() *kernelreg.Registry { return e.opts.Registry }

// deadline resolves the per-request deadline: an explicit deadline_ms
// wins, then the configured default, then the machine layer's
// deadlock-watchdog derivation (the rule behind Config.DeadlockTimeout)
// over the request's largest NPE and problem size.
func (e *Engine) deadline(deadlineMS int64, maxNPE, maxN int) time.Duration {
	if deadlineMS > 0 {
		return time.Duration(deadlineMS) * time.Millisecond
	}
	if e.opts.DefaultDeadline > 0 {
		return e.opts.DefaultDeadline
	}
	return machine.DefaultDeadline(maxNPE, maxN)
}

// Closing reports whether Close has begun: admitted requests may still
// be draining, but new work is refused. The HTTP layer uses it to
// report drain (503, retryable on a peer) instead of deadline overrun
// (504, terminal) for requests caught mid-shutdown.
func (e *Engine) Closing() bool {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	return e.closed
}

// Close drains the engine: new admissions fail with ErrClosed,
// admitted requests run to completion, queued work is finished, and
// the workers exit. Safe to call more than once; blocks until the
// drain completes.
func (e *Engine) Close() {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	e.stateMu.Lock()
	alreadyClosed := e.closed
	e.closed = true
	e.stateMu.Unlock()
	e.reqWG.Wait() // all admitted requests returned → no more sends
	if !alreadyClosed {
		close(e.tasks)
	}
	e.workWG.Wait() // workers finished the queue
}
