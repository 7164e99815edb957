package cluster

// router.go — the cluster coordinator. A Router owns the client-facing
// HTTP surface of a shard set: it consistent-hashes each request's
// capture group onto its home shard, forwards the request whole over
// HTTP with per-shard timeouts, and on failure walks the group's ring
// order to a live peer with capped exponential backoff — bounded by a
// retry budget, surfaced in cluster.* metrics and per-request trace
// spans. A sweep goes whole to its first group's home shard: because
// every shard serves every point bit-identically (the
// single-assignment property: a capture group's reference stream is
// immutable), the shard's body is byte-for-byte the single-node body.
// The cost is locality: a multi-kernel sweep's other groups are
// captured on that shard too, or loaded from a shared capture store.
//
// Shard health is a three-state lifecycle (up → suspect → down) fed by
// both an active prober and forwarding failures; down shards are
// skipped in the ring walk (their requests re-dispatch to the next
// peer), and any success restores a shard to up. When every shard is
// unreachable the router degrades to direct execution on an embedded
// single-node server — slower, never wrong.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/kernelreg"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/serve"
)

// Observability names of the cluster family. Counters unless noted;
// docs/CLUSTER.md describes how they compose into a failover picture.
const (
	MetricForwards        = "cluster.forwards"         // requests sent to shards, one per attempt
	MetricForwardFailures = "cluster.forward_failures" // transport errors + retryable statuses
	MetricFailovers       = "cluster.failovers"        // requests re-dispatched to a peer
	MetricRetriesExhaust  = "cluster.retry_exhausted"  // requests that ran out of retry budget
	MetricLocalFallbacks  = "cluster.local_fallbacks"  // requests served by the embedded engine
	MetricProbes          = "cluster.health_probes"    // active health checks sent
	MetricProbeFailures   = "cluster.health_probe_failures"
	MetricStateChanges    = "cluster.shard_state_changes"  // up/suspect/down transitions
	MetricShardsUp        = "cluster.shards_up"            // gauge: shards currently up
	MetricForwardUS       = "cluster.forward_us"           // histogram (obs.MicrosBuckets): per-attempt forward latency
	MetricReplications    = "cluster.compile_replications" // compiled kernels broadcast to the shard set
)

// shardState is the health lifecycle: up ⇄ suspect → down, any success
// returning the shard straight to up.
type shardState int32

const (
	stateUp shardState = iota
	stateSuspect
	stateDown
)

func (s shardState) String() string {
	switch s {
	case stateUp:
		return "up"
	case stateSuspect:
		return "suspect"
	default:
		return "down"
	}
}

// The router's fixed timings. Forwards wait shardTimeout each, and
// between attempts back off base·2^(n-1) plus up to base of jitter,
// capped at backoffMax; the prober checks every shard each
// probeInterval.
const (
	shardTimeout  = 60 * time.Second
	backoffBase   = 5 * time.Millisecond
	backoffMax    = 250 * time.Millisecond
	probeInterval = 500 * time.Millisecond
)

// RouterOptions configures NewRouter.
type RouterOptions struct {
	// Shards is the shard count; AddrOf(i) returns shard i's current
	// "host:port" and PIDOf(i) its process ID (-1 when dead) — normally
	// Supervisor.Addr / Supervisor.PID, kept as funcs so a restart's new
	// address is picked up and tests can stub shards with httptest.
	Shards int
	AddrOf func(id int) string
	PIDOf  func(id int) int

	// Local configures the embedded single-node server: the all-shards-
	// down fallback and the handler for non-routed endpoints
	// (/v1/kernels, /metrics, pprof). Its Metrics registry (a fresh one
	// when nil) also receives the router's cluster.* instruments.
	Local serve.Options
}

// Router fronts a shard set. Create with NewRouter, mount Handler, and
// Close when done (stops the prober and drains the embedded engine).
type Router struct {
	opts  RouterOptions
	ring  *ring
	local *serve.Server
	mux   *http.ServeMux
	tring *trace.Ring
	hc    *http.Client

	cForwards, cForwardFails, cFailovers *obs.Counter
	cExhausted, cLocalFallbacks          *obs.Counter
	cProbes, cProbeFails, cStateChanges  *obs.Counter
	cReplications                        *obs.Counter
	gShardsUp                            *obs.Gauge
	hForward                             *obs.Histogram

	stateMu sync.Mutex
	states  []shardState

	rngMu sync.Mutex
	rng   *rand.Rand

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
}

// NewRouter builds a Router and starts its health prober.
func NewRouter(opts RouterOptions) (*Router, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 shard, got %d", opts.Shards)
	}
	if opts.AddrOf == nil {
		return nil, fmt.Errorf("cluster: RouterOptions.AddrOf is required")
	}
	if opts.Local.Metrics == nil {
		opts.Local.Metrics = obs.NewRegistry()
	}
	reg := opts.Local.Metrics
	rt := &Router{
		opts:            opts,
		ring:            newRing(opts.Shards),
		local:           serve.New(opts.Local),
		mux:             http.NewServeMux(),
		tring:           trace.NewRing(),
		hc:              &http.Client{},
		cForwards:       reg.Counter(MetricForwards),
		cForwardFails:   reg.Counter(MetricForwardFailures),
		cFailovers:      reg.Counter(MetricFailovers),
		cExhausted:      reg.Counter(MetricRetriesExhaust),
		cLocalFallbacks: reg.Counter(MetricLocalFallbacks),
		cProbes:         reg.Counter(MetricProbes),
		cProbeFails:     reg.Counter(MetricProbeFailures),
		cStateChanges:   reg.Counter(MetricStateChanges),
		cReplications:   reg.Counter(MetricReplications),
		gShardsUp:       reg.Gauge(MetricShardsUp),
		hForward:        reg.Histogram(MetricForwardUS, obs.MicrosBuckets),
		states:          make([]shardState, opts.Shards),
		rng:             rand.New(rand.NewSource(1)),
		stopProbe:       make(chan struct{}),
	}
	rt.gShardsUp.Set(int64(opts.Shards))
	rt.mux.HandleFunc("POST /v1/classify", rt.handleRouted)
	rt.mux.HandleFunc("POST /v1/sweep", rt.handleRouted)
	rt.mux.HandleFunc("POST /v1/compile", rt.handleCompile)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.Handle("GET /debug/trace", rt.tring)
	rt.mux.Handle("/", rt.local.Handler()) // kernels, metrics, pprof, vars
	rt.probeWG.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Handler returns the router's route tree.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the health prober and drains the embedded engine.
func (rt *Router) Close() {
	close(rt.stopProbe)
	rt.probeWG.Wait()
	rt.local.Close()
}

// --- health ---

func (rt *Router) state(id int) shardState {
	rt.stateMu.Lock()
	defer rt.stateMu.Unlock()
	return rt.states[id]
}

func (rt *Router) setState(id int, s shardState) {
	rt.stateMu.Lock()
	old := rt.states[id]
	if old != s {
		rt.states[id] = s
		up := int64(0)
		for _, st := range rt.states {
			if st == stateUp {
				up++
			}
		}
		rt.stateMu.Unlock()
		rt.cStateChanges.Inc()
		rt.gShardsUp.Set(up)
		return
	}
	rt.stateMu.Unlock()
}

// noteFailure degrades a shard one step: up → suspect → down.
func (rt *Router) noteFailure(id int) {
	rt.stateMu.Lock()
	old := rt.states[id]
	rt.stateMu.Unlock()
	switch old {
	case stateUp:
		rt.setState(id, stateSuspect)
	case stateSuspect:
		rt.setState(id, stateDown)
	}
}

func (rt *Router) noteSuccess(id int) { rt.setState(id, stateUp) }

// probeLoop actively health-checks every shard: GET /healthz with a
// bounded timeout, feeding the same three-state lifecycle forwarding
// failures feed. A down shard keeps being probed — that is how it
// comes back after a restart.
func (rt *Router) probeLoop() {
	defer rt.probeWG.Done()
	tick := time.NewTicker(probeInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.stopProbe:
			return
		case <-tick.C:
		}
		for id := 0; id < rt.opts.Shards; id++ {
			rt.probe(id)
		}
	}
}

func (rt *Router) probe(id int) {
	rt.cProbes.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), probeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+rt.opts.AddrOf(id)+"/healthz", nil)
	if err != nil {
		rt.cProbeFails.Inc()
		rt.noteFailure(id)
		return
	}
	resp, err := rt.hc.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		if resp != nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		rt.cProbeFails.Inc()
		rt.noteFailure(id)
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rt.noteSuccess(id)
}

// --- forwarding ---

// errAllAttemptsFailed reports an exhausted retry budget or no live
// candidate; the caller degrades to the embedded engine.
var errAllAttemptsFailed = errors.New("cluster: all forward attempts failed")

// retryableStatus reports whether a shard's status line means "the
// identical request can succeed elsewhere": 502/503 (drain, restart,
// proxy failure). 504 is terminal — the deadline travels with the
// request and would overrun again on a peer — as are 4xx and 500.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable
}

// forwardOnce sends one request to one shard and reads the whole
// response.
func (rt *Router) forwardOnce(ctx context.Context, id int, path, reqID string, payload []byte) (int, []byte, error) {
	cctx, cancel := context.WithTimeout(ctx, shardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, "http://"+rt.opts.AddrOf(id)+path, bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	rt.cForwards.Inc()
	start := time.Now()
	resp, err := rt.hc.Do(req)
	rt.hForward.Observe(time.Since(start).Microseconds())
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// dispatch routes one request by its group key: home shard first, then
// the ring-order peers, skipping shards believed down, sleeping a
// capped exponential backoff (with seeded jitter) between attempts,
// within a budget of one attempt per shard. Success means a response
// whose status is not retryable — a 400 or 504 is the answer, not a
// reason to hammer peers. Returns errAllAttemptsFailed when the budget
// is spent.
func (rt *Router) dispatch(ctx context.Context, tr *trace.Trace, parent trace.SpanRef, key, path, reqID string, payload []byte) (int, []byte, error) {
	order := rt.ring.order(key)
	attempts := 0
	for round := 0; round < 2 && attempts < rt.opts.Shards; round++ {
		for _, id := range order {
			if attempts >= rt.opts.Shards {
				break
			}
			// First round honors health; the second is the last-gasp
			// round that tries even down shards before degrading.
			if round == 0 && rt.state(id) == stateDown {
				continue
			}
			if attempts > 0 {
				rt.cFailovers.Inc()
				tr.Count("cluster.failovers", 1)
				rt.backoff(ctx, attempts)
			}
			attempts++
			sp := tr.StartChild(parent, fmt.Sprintf("forward.shard%d", id))
			status, body, err := rt.forwardOnce(ctx, id, path, reqID, payload)
			sp.End()
			if err == nil && !retryableStatus(status) {
				rt.noteSuccess(id)
				return status, body, nil
			}
			rt.cForwardFails.Inc()
			rt.noteFailure(id)
			if err != nil {
				tr.Event(parent, fmt.Sprintf("shard%d.error", id), 0, "")
			} else {
				tr.Event(parent, fmt.Sprintf("shard%d.status", id), int64(status), "")
			}
			if ctx.Err() != nil {
				return 0, nil, ctx.Err()
			}
		}
	}
	rt.cExhausted.Inc()
	return 0, nil, errAllAttemptsFailed
}

// backoff sleeps the capped exponential schedule: base·2^(n-1) +
// jitter, capped at backoffMax, abandoned if ctx ends first.
func (rt *Router) backoff(ctx context.Context, attempt int) {
	d := backoffBase << (attempt - 1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	rt.rngMu.Lock()
	j := time.Duration(rt.rng.Int63n(int64(backoffBase) + 1))
	rt.rngMu.Unlock()
	select {
	case <-time.After(d + j):
	case <-ctx.Done():
	}
}

// --- request handling ---

// recorder captures a response served by the embedded local handler so
// the router can relay it. A minimal http.ResponseWriter — the local
// handler writes status, headers and one body.
type recorder struct {
	status int
	hdr    http.Header
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}

// serveLocalBytes runs a request against the embedded single-node
// server and returns the recorded response.
func (rt *Router) serveLocalBytes(r *http.Request, path string, payload []byte) (int, []byte) {
	rec := newRecorder()
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, path, bytes.NewReader(payload))
	if err != nil {
		return http.StatusInternalServerError, []byte(`{"error":"local fallback request"}`)
	}
	req.Header.Set("Content-Type", "application/json")
	rt.local.Handler().ServeHTTP(rec, req)
	return rec.status, rec.body.Bytes()
}

// begin starts the per-request trace, echoing/generating X-Request-ID
// exactly like the single-node front end.
func (rt *Router) begin(w http.ResponseWriter, r *http.Request, route string) (*trace.Trace, string) {
	id := trace.SanitizeID(r.Header.Get("X-Request-ID"))
	if id == "" {
		id = trace.NewID()
	}
	w.Header().Set("X-Request-ID", id)
	return trace.New(id, route), id
}

func (rt *Router) finish(tr *trace.Trace, status int) {
	tr.Finish(status)
	rt.tring.Add(tr)
}

// handleRouted serves POST /v1/classify and POST /v1/sweep through one
// forward path. The request is placed by its capture group — the
// classify's kernel, or the sweep's first kernel (the paper set's first
// when the sweep names none) at its clamped N — and its original bytes
// go to that group's home shard, failing over along the ring. A sweep
// is never split: the shard that answers is itself a single node, so
// its body is the single-node body and is relayed as it came. A
// request the router cannot place (parse error, unknown kernel) goes
// to the local server, whose decode produces exactly the single-node
// error bytes.
func (rt *Router) handleRouted(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	tr, reqID := rt.begin(w, r, path)
	raw, err := rt.readBody(w, r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody(fmt.Errorf("reading request body: %w", err)))
		rt.finish(tr, http.StatusBadRequest)
		return
	}
	key, kernels := rt.place(path, raw)
	if key == "" {
		status, body := rt.serveLocalBytes(r, path, raw)
		writeJSON(w, status, body)
		rt.finish(tr, status)
		return
	}
	root := tr.Start("route")
	status, body, err := rt.dispatch(r.Context(), tr, root, key, path, reqID, raw)
	if err == nil && rt.healUnknown(r.Context(), reqID, status, body, kernels...) {
		status, body, err = rt.dispatch(r.Context(), tr, root, key, path, reqID, raw)
	}
	if err != nil {
		rt.cLocalFallbacks.Inc()
		tr.Count("cluster.local_fallbacks", 1)
		status, body = rt.serveLocalBytes(r, path, raw)
	}
	root.End()
	writeJSON(w, status, body)
	rt.finish(tr, status)
}

// readBody reads a request body up to the bound a single node puts on
// its path (serve.Server.BodyLimit). A longer body keeps its first
// BodyLimit bytes plus one: whichever server then decodes it, shard or
// local, meets the bound where a single node would and writes the
// single node's bytes (a 413 unless the JSON value ended in time).
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.local.BodyLimit(r.URL.Path)))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return append(raw, ' '), nil
	}
	return raw, err
}

// place decodes a classify or sweep body and returns the group key it
// is routed by, plus every kernel it names (for healUnknown). The key
// is empty when the body does not decode or its placing kernel does
// not resolve. Resolution goes through the local registry, so built-in
// keys and compiled "u:..." ids place the same way and a compiled
// kernel's captures concentrate on one home shard like a built-in's.
func (rt *Router) place(path string, raw []byte) (key string, kernels []string) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var n int
	if path == "/v1/classify" {
		var req serve.ClassifyRequest
		if dec.Decode(&req) != nil {
			return "", nil
		}
		kernels, n = []string{req.Kernel}, req.N
	} else {
		var req serve.SweepRequest
		if dec.Decode(&req) != nil {
			return "", nil
		}
		kernels, n = req.Kernels, req.N
	}
	if len(kernels) == 0 { // a sweep without kernels runs the paper set
		kernels = []string{loops.PaperSet()[0].Key}
	}
	k, err := rt.local.Registry().Resolve(kernels[0])
	if err != nil {
		return "", nil
	}
	return GroupKey(k.Key, k.ClampN(n)), kernels
}

// handleCompile serves POST /v1/compile cluster-wide. The embedded
// local server compiles first and its bytes are the response — so a
// routed compile is byte-identical to the single-node one — and on
// success the kernel's canonical replication request (the registry's
// own rendering: already SA-clean, no convert flag, first-wins
// default_n) is broadcast to every shard synchronously, so a classify
// or sweep arriving right after the compile returns finds a warm
// registry on its home shard. A shard that misses the broadcast
// (down, mid-restart) is healed lazily: its 404 unknown_kernel answer
// triggers re-replication and one dispatch retry (healUnknown).
func (rt *Router) handleCompile(w http.ResponseWriter, r *http.Request) {
	tr, reqID := rt.begin(w, r, "/v1/compile")
	raw, err := rt.readBody(w, r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody(fmt.Errorf("reading request body: %w", err)))
		rt.finish(tr, http.StatusBadRequest)
		return
	}
	sp := tr.Start("compile_local")
	status, body := rt.serveLocalBytes(r, "/v1/compile", raw)
	sp.End()
	if status == http.StatusOK {
		var resp kernelreg.CompileResponse
		if json.Unmarshal(body, &resp) == nil && resp.Kernel != "" {
			rsp := tr.Start("replicate")
			rt.replicate(r.Context(), reqID, resp.Kernel)
			rsp.End()
		}
	}
	writeJSON(w, status, body)
	rt.finish(tr, status)
}

// replicate broadcasts a locally registered compiled kernel to every
// shard concurrently and waits for the fan-out. Best-effort per shard:
// an unreachable shard is left for heal-on-use rather than failing the
// client's compile. Reports whether the kernel was known locally (the
// precondition for a useful retry).
func (rt *Router) replicate(ctx context.Context, reqID, id string) bool {
	rep, ok := rt.local.Registry().ReplicationRequest(id)
	if !ok {
		return false
	}
	payload, err := json.Marshal(rep)
	if err != nil {
		return false
	}
	var wg sync.WaitGroup
	for shard := 0; shard < rt.opts.Shards; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			status, _, ferr := rt.forwardOnce(ctx, shard, "/v1/compile", reqID, payload)
			if ferr != nil || status != http.StatusOK {
				rt.cForwardFails.Inc()
				rt.noteFailure(shard)
				return
			}
			rt.noteSuccess(shard)
		}(shard)
	}
	wg.Wait()
	rt.cReplications.Inc()
	return true
}

// healUnknown inspects a shard answer for the 404 unknown_kernel
// signature over a compiled id — the mark of a shard that restarted
// and lost its in-memory registry — re-replicates every compiled
// kernel the failed request named, and reports whether the caller
// should retry its dispatch.
func (rt *Router) healUnknown(ctx context.Context, reqID string, status int, body []byte, kernels ...string) bool {
	if status != http.StatusNotFound {
		return false
	}
	var eb serve.ErrorBody
	if json.Unmarshal(body, &eb) != nil || eb.Code != kernelreg.CodeUnknownKernel {
		return false
	}
	healed := false
	for _, k := range kernels {
		if kernelreg.IsCompiledID(k) && rt.replicate(ctx, reqID, k) {
			healed = true
		}
	}
	return healed
}

// --- introspection ---

// shardHealth is one row of the router's /healthz shard table.
type shardHealth struct {
	ID    int    `json:"id"`
	Addr  string `json:"addr"`
	PID   int    `json:"pid"`
	State string `json:"state"`
}

// handleHealthz reports the cluster view: "ok" when every shard is up,
// "degraded" otherwise — with "serving" always true, because the
// router keeps answering through failover and the embedded engine. The
// per-shard PID lets a chaos harness pick a victim.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	shards := make([]shardHealth, rt.opts.Shards)
	status := "ok"
	for i := range shards {
		st := rt.state(i)
		if st != stateUp {
			status = "degraded"
		}
		pid := -1
		if rt.opts.PIDOf != nil {
			pid = rt.opts.PIDOf(i)
		}
		shards[i] = shardHealth{ID: i, Addr: rt.opts.AddrOf(i), PID: pid, State: st.String()}
	}
	body, err := json.Marshal(struct {
		Status  string        `json:"status"`
		Serving bool          `json:"serving"`
		Shards  []shardHealth `json:"shards"`
	}{Status: status, Serving: true, Shards: shards})
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody(err))
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func errorBody(err error) []byte {
	b, _ := json.Marshal(serve.ErrorBody{Error: err.Error()})
	return b
}
