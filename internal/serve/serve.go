// Package serve is the serving subsystem of the reproduction: a
// batching, caching HTTP classification service over the sweep/replay
// engines. The paper's machinery — classify every access of a
// Livermore kernel under a machine configuration — becomes a long-lived
// daemon (cmd/lfksimd) instead of only a CLI, the way PGAS runtimes
// expose partitioned memory behind a uniform service interface.
//
// Endpoints:
//
//	POST /v1/classify   one grid point → PointResult
//	POST /v1/sweep      a parameter grid → SweepResult (grid order)
//	GET  /v1/kernels    the kernel registry
//	GET  /healthz       liveness + build/version details
//	GET  /metrics       obs registry snapshot (JSON; ?format=prom for
//	                    Prometheus text exposition)
//	GET  /debug/trace   recent request traces (?id= for one span tree)
//	GET  /debug/pprof/  net/http/pprof (plus /debug/vars expvar)
//
// The hot path exploits the existing engines end-to-end: requests are
// validated into canonical configurations (api.go), deduplicated
// against identical in-flight work, answered from a bounded LRU of
// encoded bodies, and executed on a shared worker pool that reuses
// reference-stream captures across requests keyed by (kernel, N)
// (engine.go). Production behaviors are part of the subsystem:
// admission control (bounded in-flight requests → 429 + Retry-After),
// per-request deadlines (504), graceful shutdown that drains in-flight
// work, and full obs instrumentation — with determinism preserved:
// identical requests yield bit-identical JSON bodies. See
// docs/SERVING.md.
//
// Every classify/sweep request is request-scoped traced: the caller's
// X-Request-ID (or a generated one) is echoed back, the request rides
// an obs/trace.Trace recording per-stage spans (admission wait, cache
// lookup, singleflight wait, capture, replay, encode), recent traces
// are retained in a bounded ring behind GET /debug/trace, and each
// request emits one JSON access-log line. The same stages feed the
// serve.stage.* histograms for server-side percentiles. See
// docs/OBSERVABILITY.md.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"repro/internal/kernelreg"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// Server is the HTTP face of the classification service. Create one
// with New, mount Handler on any http.Server, and Close it (after
// http.Server.Shutdown) to drain the engine.
type Server struct {
	eng    *Engine
	reg    *obs.Registry
	mux    *http.ServeMux
	ring   *trace.Ring
	alog   *accessLogger
	health []byte

	cClassify, cSweep, cCompile, cBad, cDeadline *obs.Counter
	hClassify, hSweep, hCompileReq               *obs.Histogram
}

// New builds a Server (and its Engine) from opts.
func New(opts Options) *Server {
	eng := newEngine(opts)
	reg := eng.reg
	s := &Server{
		eng:         eng,
		reg:         reg,
		mux:         http.NewServeMux(),
		ring:        trace.NewRing(),
		alog:        newAccessLogger(opts.AccessLog),
		health:      healthBody(),
		cClassify:   reg.Counter(MetricClassifyRequests),
		cSweep:      reg.Counter(MetricSweepRequests),
		cCompile:    reg.Counter(MetricCompileRequests),
		cBad:        reg.Counter(MetricBadRequests),
		cDeadline:   reg.Counter(MetricDeadlineExceeded),
		hClassify:   reg.Histogram(MetricClassifyLatencyUS, obs.MicrosBuckets),
		hSweep:      reg.Histogram(MetricSweepLatencyUS, obs.MicrosBuckets),
		hCompileReq: reg.Histogram(MetricCompileLatencyUS, obs.MicrosBuckets),
	}
	reg.Gauge(MetricBuildInfo).Set(1)
	s.mux.HandleFunc("POST /v1/classify", s.traced("/v1/classify", s.handleClassify))
	s.mux.HandleFunc("POST /v1/sweep", s.traced("/v1/sweep", s.handleSweep))
	s.mux.HandleFunc("POST /v1/compile", s.traced("/v1/compile", s.handleCompile))
	s.mux.HandleFunc("GET /v1/kernels", s.handleKernels)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("GET /debug/trace", s.ring)
	AttachDebug(s.mux, reg)
	return s
}

// Handler returns the server's route tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the compiled-kernel registry (always non-nil). The
// cluster router shares it into its routing options so compiled ids
// resolve for group-key derivation.
func (s *Server) Registry() *kernelreg.Registry { return s.eng.Registry() }

// Close drains the engine: call it after http.Server.Shutdown has
// stopped new connections; it blocks until in-flight work finishes.
func (s *Server) Close() { s.eng.Close() }

// AttachDebug registers the pprof and expvar debug handlers on mux and
// publishes reg under the "repro" expvar name. Shared by the daemon
// and lfksim's -pprof flag so neither touches http.DefaultServeMux —
// debug endpoints live and die with the mux's own server.
func AttachDebug(mux *http.ServeMux, reg *obs.Registry) {
	obs.PublishExpvar("repro", reg)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
}

// writeJSON writes body with the canonical headers. body is already
// encoded: the determinism contract forbids re-marshalling.
func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, status int, err error) {
	body, _ := json.Marshal(ErrorBody{Error: err.Error()})
	writeJSON(w, status, body)
}

// BodyLimit is the largest request body the server reads on path. A
// compile body may hold twice the registry's source limit, because
// JSON escaping can inflate the source (\n, \"), plus envelope
// headroom; the registry still enforces the exact limit on the decoded
// source. A classify or sweep body gets a 4 KiB envelope plus 128
// bytes per point a sweep may expand to (MaxSweepPoints): a sweep's
// lists hold at most that many values each. Past the bound, decode
// fails and the request is answered 413.
func (s *Server) BodyLimit(path string) int64 {
	if path == "/v1/compile" {
		return 2*kernelreg.MaxSourceBytes + 4096
	}
	return 4096 + 128*int64(s.eng.opts.MaxSweepPoints)
}

// badStatus is the status of a request that failed to decode or
// validate: 413 when its body passed BodyLimit, 400 otherwise.
func badStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decode strictly parses a request body: unknown fields are rejected
// so a typoed knob fails loudly instead of silently selecting a
// default.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("parsing request body: %w", err)
	}
	return nil
}

// finishErr maps an execution error onto its status code and counters.
// Status codes separate the retryable from the terminal for upstream
// routers: 503 (+ Retry-After) means "this replica is draining — the
// identical request succeeds elsewhere", while 504 means the work
// itself overran its deadline and would overrun it again on a peer.
func (s *Server) finishErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		if s.eng.Closing() {
			// The deadline fired because Close stopped the pool under
			// this request, not because the work was too slow. Report
			// drain (retryable), not deadline (terminal).
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("engine draining: %w", err))
			return
		}
		s.cDeadline.Inc()
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful to write.
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// rejectErr handles admission failures: 429 with Retry-After under
// overload, 503 with Retry-After during shutdown.
func rejectErr(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrOverloaded) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, err)
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	s.cClassify.Inc()
	start := time.Now()
	defer func() { s.hClassify.Observe(time.Since(start).Microseconds()) }()
	s.answer(w, r, func(lim limits) ([]point, int64, error) {
		var req ClassifyRequest
		if err := decode(r, &req); err != nil {
			return nil, 0, err
		}
		p, err := canonPoint(req, lim)
		return []point{p}, req.DeadlineMS, err
	}, func(bodies []json.RawMessage) {
		writeJSON(w, http.StatusOK, bodies[0])
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.cSweep.Inc()
	start := time.Now()
	defer func() { s.hSweep.Observe(time.Since(start).Microseconds()) }()
	s.answer(w, r, func(lim limits) ([]point, int64, error) {
		var req SweepRequest
		if err := decode(r, &req); err != nil {
			return nil, 0, err
		}
		pts, err := canonSweep(req, lim)
		return pts, req.DeadlineMS, err
	}, func(bodies []json.RawMessage) {
		body, err := json.Marshal(&SweepResult{Count: len(bodies), Points: bodies})
		if err != nil {
			s.finishErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, body)
	})
}

// answer is the request path /v1/classify and /v1/sweep share: decode
// and canonicalize the body (parse), take an admission slot, answer
// the points on the engine's one point path (DoSweep) under the
// request's deadline, derived over its largest NPE and problem size,
// and hand the bodies to write while the slot is still held. Sweep and
// classify bodies are therefore interchangeable bit-for-bit. Every
// failure is written here, with its status code.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, parse func(limits) ([]point, int64, error), write func([]json.RawMessage)) {
	tr := trace.FromContext(r.Context())
	r.Body = http.MaxBytesReader(w, r.Body, s.BodyLimit(r.URL.Path))
	sp := tr.Start("decode")
	pts, deadlineMS, err := parse(s.eng.opts.limits())
	s.eng.hDecode.Observe(sp.End().Microseconds())
	if err != nil {
		s.cBad.Inc()
		// Unknown compiled ("u:") kernels carry a structured 404 +
		// unknown_kernel code; an oversize body is a 413; every other
		// validation failure keeps its pre-existing 400 body bytes.
		writeStructured(w, badStatus(err), err)
		return
	}
	asp := tr.Start("admit_wait")
	release, err := s.eng.admit()
	s.eng.hAdmit.Observe(asp.End().Microseconds())
	if err != nil {
		rejectErr(w, err)
		return
	}
	defer release()

	maxNPE, maxN := 1, 1
	for _, p := range pts {
		maxNPE = max(maxNPE, p.cfg.NPE)
		maxN = max(maxN, p.n)
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.eng.deadline(deadlineMS, maxNPE, maxN))
	defer cancel()
	bodies, err := s.eng.DoSweep(ctx, pts)
	if err != nil {
		s.finishErr(w, err)
		return
	}
	write(bodies)
}

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("compiled") == "1" {
		s.handleCompiledKernels(w)
		return
	}
	paper := map[string]bool{}
	for _, k := range loops.PaperSet() {
		paper[k.Key] = true
	}
	infos := make([]KernelInfo, 0, len(loops.All()))
	for _, k := range loops.All() {
		infos = append(infos, KernelInfo{
			Key:      k.Key,
			Name:     k.Name,
			Class:    k.Class.String(),
			DefaultN: k.DefaultN,
			MinN:     k.MinN,
			Paper:    paper[k.Key],
		})
	}
	body, err := json.Marshal(infos)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, s.health)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	if wantsProm(r) {
		var buf bytes.Buffer
		if err := obs.WritePrometheus(&buf, s.reg.Snapshot(), metricHelp); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", obs.PromContentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(buf.Bytes())
		return
	}
	body, err := json.MarshalIndent(s.reg.Snapshot(), "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// wantsProm selects the /metrics exposition: an explicit
// ?format=prom|json parameter wins; otherwise an Accept header asking
// for text/plain or openmetrics (and not application/json) selects the
// Prometheus text format. JSON is the default.
func wantsProm(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "application/json") {
		return false
	}
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// metricHelp supplies # HELP strings for the Prometheus exposition,
// keyed by registry name. Intentionally partial: names without an
// entry still expose with # TYPE only.
var metricHelp = map[string]string{
	MetricBuildInfo:          "constant 1 while the process serves; version details on GET /healthz",
	MetricClassifyRequests:   "POST /v1/classify requests received",
	MetricSweepRequests:      "POST /v1/sweep requests received",
	MetricRejected:           "requests refused by admission control (429)",
	MetricBadRequests:        "requests rejected by validation (400)",
	MetricDeadlineExceeded:   "requests that exceeded their deadline (504)",
	MetricCacheHits:          "points answered from the result cache",
	MetricCacheMisses:        "points that executed or joined an in-flight execution",
	MetricDedupWaits:         "points that joined an identical in-flight point",
	MetricPointsExecuted:     "simulator/replayer point executions",
	MetricStreamCaptures:     "reference-stream captures performed",
	MetricStreamHits:         "captures avoided by the stream cache",
	MetricQueueDepth:         "tasks queued for the worker pool",
	MetricInflight:           "admitted in-flight requests",
	MetricClassifyLatencyUS:  "end-to-end /v1/classify latency (microseconds)",
	MetricSweepLatencyUS:     "end-to-end /v1/sweep latency (microseconds)",
	MetricStageDecodeUS:      "stage: body decode + canonicalization (microseconds)",
	MetricStageAdmitWaitUS:   "stage: admission-slot acquisition (microseconds)",
	MetricStageCacheLookupUS: "stage: result-cache lookup (microseconds)",
	MetricStageFlightWaitUS:  "stage: enqueue + singleflight wait (microseconds)",
	MetricStageCaptureUS:     "stage: reference-stream fetch/capture (microseconds)",
	MetricStageReplayUS:      "stage: replayer pass (microseconds)",
	MetricStageDirectUS:      "stage: direct simulator run (microseconds)",
	MetricStageEncodeUS:      "stage: result encoding (microseconds)",
	MetricCompileRequests:    "POST /v1/compile requests received",
	MetricCompileLatencyUS:   "end-to-end /v1/compile latency (microseconds)",
	MetricStageCompileUS:     "stage: registry compile pipeline (microseconds)",

	kernelreg.MetricCompiles:      "kernel compile attempts",
	kernelreg.MetricCompileHits:   "recompiles of an already-registered kernel id",
	kernelreg.MetricCompileErrors: "compiles rejected with a structured 4xx",
	kernelreg.MetricEvictions:     "compiled kernels evicted under capacity pressure",
	kernelreg.MetricQuotaRejects:  "compiles rejected by the per-tenant quota",
	kernelreg.MetricResolveMisses: "classify/sweep lookups of unknown compiled ids",
	kernelreg.MetricEntries:       "registered compiled kernels",
}
