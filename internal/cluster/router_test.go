package cluster

// router_test.go — the router against in-process shards (httptest
// servers over real serve.Servers): byte-identity of routed sweeps and
// classifies with the single-node baseline, failover when a shard's
// listener dies or its engine drains, graceful degradation to the
// embedded engine when every shard is gone, and the /healthz cluster
// view. Process-level chaos (SIGKILL mid-sweep) lives in
// chaos_test.go.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/serve"
)

// sweepBody is a 4-kernel slice of the standard grid: its groups span
// every shard of a 3-shard ring, yet the router forwards it whole to
// k1's home shard; small enough for fast tests.
const sweepBody = `{"kernels":["k1","k2","k3","k6"],"npes":[2,8],"page_sizes":[32,64],"cache_elems":[0,256]}`

// homeShard is the shard a request placed on kernel key (at its
// default N) goes to first: a sweep's first kernel, or a classify's.
func homeShard(t *testing.T, rt *Router, key string) int {
	t.Helper()
	k, err := loops.ByKey(key)
	if err != nil {
		t.Fatal(err)
	}
	return rt.ring.order(GroupKey(k.Key, k.ClampN(0)))[0]
}

// swapHandler lets a test atomically replace a shard's behavior while
// the shard keeps serving — the race-free way to model an engine that
// starts draining under load.
type swapHandler struct{ h atomic.Value } // holds hbox

type hbox struct{ h http.Handler }

func newSwapHandler(h http.Handler) *swapHandler {
	s := &swapHandler{}
	s.h.Store(hbox{h})
	return s
}

func (s *swapHandler) swap(h http.Handler) { s.h.Store(hbox{h}) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(hbox).h.ServeHTTP(w, r)
}

// drain503 is the exact response shape a draining serve engine emits.
var drain503 = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Retry-After", "1")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	_, _ = w.Write([]byte(`{"error":"serve: engine closed"}`))
})

type testCluster struct {
	router   *Router
	front    *httptest.Server
	shards   []*httptest.Server
	handlers []*swapHandler
	reg      *obs.Registry
}

// newTestCluster boots n in-process shards and a router over them.
// Callers mutate c.shards / c.handlers to
// inject faults.
func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	c := &testCluster{reg: obs.NewRegistry()}
	for i := 0; i < n; i++ {
		sreg := obs.NewRegistry()
		s := serve.New(serve.Options{Metrics: sreg, AccessLog: io.Discard})
		sh := newSwapHandler(s.Handler())
		ts := httptest.NewServer(sh)
		c.shards = append(c.shards, ts)
		c.handlers = append(c.handlers, sh)
		t.Cleanup(func() { ts.Close(); s.Close() })
	}
	rt, err := NewRouter(RouterOptions{
		Shards: n,
		AddrOf: func(id int) string { return strings.TrimPrefix(c.shards[id].URL, "http://") },
		Local:  serve.Options{Metrics: c.reg, AccessLog: io.Discard},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.router = rt
	c.front = httptest.NewServer(rt.Handler())
	t.Cleanup(func() { c.front.Close(); rt.Close() })
	return c
}

func postJSON(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// baseline serves the same request on a fresh single-node server: the
// bytes every routed configuration must reproduce.
func baseline(t *testing.T, path, body string) []byte {
	t.Helper()
	s := serve.New(serve.Options{Metrics: obs.NewRegistry(), AccessLog: io.Discard})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	code, _, b := postJSON(t, ts.URL+path, body)
	if code != http.StatusOK {
		t.Fatalf("baseline %s: %d: %s", path, code, b)
	}
	return b
}

func TestRoutedSweepMatchesSingleNode(t *testing.T) {
	want := baseline(t, "/v1/sweep", sweepBody)
	c := newTestCluster(t, 3)
	code, _, got := postJSON(t, c.front.URL+"/v1/sweep", sweepBody)
	if code != http.StatusOK {
		t.Fatalf("routed sweep: %d: %s", code, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("routed sweep body differs from single-node baseline (%d vs %d bytes)", len(want), len(got))
	}
	// The four kernels' groups span several shards, but the sweep is
	// forwarded whole: one forward on a healthy cluster.
	if got := c.reg.Counter(MetricForwards).Value(); got != 1 {
		t.Fatalf("cluster.forwards = %d, want 1 (the sweep forwarded whole)", got)
	}
}

func TestRoutedClassifyMatchesSingleNode(t *testing.T) {
	req := `{"kernel":"k6","npe":16,"page_size":64,"cache_elems":256}`
	want := baseline(t, "/v1/classify", req)
	c := newTestCluster(t, 3)
	code, hdr, got := postJSON(t, c.front.URL+"/v1/classify", req)
	if code != http.StatusOK {
		t.Fatalf("routed classify: %d: %s", code, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("routed classify body differs from single-node baseline")
	}
	if hdr.Get("X-Request-ID") == "" {
		t.Error("router did not echo/assign X-Request-ID")
	}
}

func TestFailoverOnDeadShard(t *testing.T) {
	want := baseline(t, "/v1/sweep", sweepBody)
	c := newTestCluster(t, 3)
	// Kill the sweep's home shard's listener outright — connection
	// refused, the transport-error flavor of failure.
	home := homeShard(t, c.router, "k1")
	c.shards[home].CloseClientConnections()
	c.shards[home].Close()
	code, _, got := postJSON(t, c.front.URL+"/v1/sweep", sweepBody)
	if code != http.StatusOK {
		t.Fatalf("sweep with a dead shard: %d: %s", code, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("failover sweep body differs from single-node baseline")
	}
	if c.reg.Counter(MetricForwardFailures).Value() == 0 {
		t.Error("no forward failures counted despite a dead home shard")
	}
	if c.reg.Counter(MetricFailovers).Value() == 0 {
		t.Error("failover not counted")
	}
	if c.reg.Counter(MetricLocalFallbacks).Value() != 0 {
		t.Error("sweep fell back to local despite live peers")
	}
}

// TestFailoverOnDrainingShard pins satellite 2 end-to-end: a shard
// answering 503 + Retry-After (drain) is retryable, so the home
// shard's drain routes the request to a live peer — not to a 504.
func TestFailoverOnDrainingShard(t *testing.T) {
	req := `{"kernel":"k1","npe":4}`
	want := baseline(t, "/v1/classify", req)
	c := newTestCluster(t, 3)

	// Drain exactly k1's home shard; the peers stay live.
	c.handlers[homeShard(t, c.router, "k1")].swap(drain503)

	code, _, got := postJSON(t, c.front.URL+"/v1/classify", req)
	if code != http.StatusOK {
		t.Fatalf("classify with draining home shard: %d: %s", code, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("drain-failover classify body differs from baseline")
	}
	if c.reg.Counter(MetricFailovers).Value() == 0 {
		t.Error("failover not counted")
	}
	if c.reg.Counter(MetricLocalFallbacks).Value() != 0 {
		t.Error("request fell back to local despite a live peer")
	}
}

// TestAllDrainingFallsBackLocal: every shard draining exhausts the
// retry budget and the embedded engine answers.
func TestAllDrainingFallsBackLocal(t *testing.T) {
	req := `{"kernel":"k1","npe":4}`
	want := baseline(t, "/v1/classify", req)
	c := newTestCluster(t, 2)
	for _, h := range c.handlers {
		h.swap(drain503)
	}
	code, _, got := postJSON(t, c.front.URL+"/v1/classify", req)
	if code != http.StatusOK {
		t.Fatalf("classify with all shards draining: %d: %s", code, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("local-fallback classify body differs from baseline")
	}
	if c.reg.Counter(MetricLocalFallbacks).Value() == 0 {
		t.Error("local fallback not counted")
	}
	if c.reg.Counter(MetricRetriesExhaust).Value() == 0 {
		t.Error("retry-budget exhaustion not counted")
	}
}

func TestAllShardsDownDegradesToLocal(t *testing.T) {
	want := baseline(t, "/v1/sweep", sweepBody)
	c := newTestCluster(t, 3)
	for _, ts := range c.shards {
		ts.CloseClientConnections()
		ts.Close()
	}
	code, _, got := postJSON(t, c.front.URL+"/v1/sweep", sweepBody)
	if code != http.StatusOK {
		t.Fatalf("sweep with all shards down: %d: %s", code, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("degraded sweep body differs from single-node baseline")
	}
	if c.reg.Counter(MetricLocalFallbacks).Value() == 0 {
		t.Error("local fallbacks not counted")
	}

	// The health view: degraded but serving.
	resp, err := http.Get(c.front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hv struct {
		Status  string `json:"status"`
		Serving bool   `json:"serving"`
		Shards  []struct {
			State string `json:"state"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hv); err != nil {
		t.Fatal(err)
	}
	if hv.Status != "degraded" || !hv.Serving {
		t.Errorf("healthz = %+v, want degraded-but-serving", hv)
	}
	if len(hv.Shards) != 3 {
		t.Errorf("healthz lists %d shards, want 3", len(hv.Shards))
	}
}

// TestBadRequestsMatchSingleNodeBytes pins the error-path contract:
// requests the router cannot place (parse errors, an unknown first
// kernel) are answered by the embedded local decode, and placeable but
// invalid ones (a bad axis, a later unknown kernel, a sweep over the
// 4 096-point limit) by the shard they are forwarded to — either way
// with status and body byte-identical to the single-node server. The
// over-limit grid, 7 NPEs × 10 page sizes × 60 cache sizes = 4 200
// points of one kernel, is answered 400 before any capture.
func TestBadRequestsMatchSingleNodeBytes(t *testing.T) {
	cases := []struct{ path, body string }{
		{"/v1/classify", `{"kernel":"nope"}`},
		{"/v1/classify", `{"kernel":"k1","bogus_field":1}`},
		{"/v1/classify", `not json`},
		{"/v1/sweep", `{"kernels":["k1"],"npes":[0]}`},
		{"/v1/sweep", `{"kernels":["nope"]}`},
		{"/v1/sweep", `{"kernels":["k1","nope"]}`},
		{"/v1/sweep", overLimitSweep()},
		{"/v1/classify", oversizeBody()},
	}
	s := serve.New(serve.Options{Metrics: obs.NewRegistry(), AccessLog: io.Discard})
	single := httptest.NewServer(s.Handler())
	defer func() { single.Close(); s.Close() }()
	c := newTestCluster(t, 2)
	for _, tc := range cases {
		wantCode, _, want := postJSON(t, single.URL+tc.path, tc.body)
		gotCode, _, got := postJSON(t, c.front.URL+tc.path, tc.body)
		if wantCode != gotCode || !bytes.Equal(want, got) {
			t.Errorf("%s %q: single-node %d %s vs routed %d %s", tc.path, tc.body, wantCode, want, gotCode, got)
		}
	}
}

// TestRouterReadsBodiesWithinBound feeds the router an 8 MB classify
// and compile body and requires a 413 after it has read no more than
// one byte past the single-node bound (serve.Server.BodyLimit).
func TestRouterReadsBodiesWithinBound(t *testing.T) {
	c := newTestCluster(t, 2)
	for _, path := range []string{"/v1/classify", "/v1/compile"} {
		body := &countingReader{r: io.MultiReader(strings.NewReader(`{"kernel":"k1","pad":"`), io.LimitReader(xs{}, 8<<20))}
		rec := httptest.NewRecorder()
		c.router.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		limit := c.router.local.BodyLimit(path)
		if rec.Code != http.StatusRequestEntityTooLarge || body.n > limit+1 {
			t.Errorf("%s: status %d after reading %d bytes; want 413 within %d", path, rec.Code, body.n, limit+1)
		}
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// xs is an endless stream of 'x'.
type xs struct{}

func (xs) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// oversizeBody is a classify body with an unknown field, past the
// default bound on a classify body (serve.Server.BodyLimit): a single
// node answers it 413 before it reads the whole body.
func oversizeBody() string {
	return `{"kernel":"k1","pad":"` + strings.Repeat("x", 1<<20) + `"}`
}

// overLimitSweep is a one-kernel grid of 7 × 10 × 60 = 4 200 points,
// over the server's default 4 096-point sweep limit.
func overLimitSweep() string {
	caches := make([]string, 60)
	for i := range caches {
		caches[i] = fmt.Sprint(i * 16)
	}
	return `{"kernels":["k1"],"npes":[1,2,4,8,16,32,64],"page_sizes":[1,2,4,8,16,32,64,128,256,512],"cache_elems":[` +
		strings.Join(caches, ",") + `]}`
}

// TestShardStateLifecycle drives up → suspect → down → up through
// forwarding failures and probe recovery.
func TestShardStateLifecycle(t *testing.T) {
	c := newTestCluster(t, 3)
	rt := c.router
	if got := rt.state(0); got != stateUp {
		t.Fatalf("initial state = %v, want up", got)
	}
	rt.noteFailure(0)
	if got := rt.state(0); got != stateSuspect {
		t.Fatalf("after one failure: %v, want suspect", got)
	}
	rt.noteFailure(0)
	if got := rt.state(0); got != stateDown {
		t.Fatalf("after two failures: %v, want down", got)
	}
	if got := c.reg.Gauge(MetricShardsUp).Value(); got != 2 {
		t.Fatalf("shards_up gauge = %d, want 2", got)
	}
	// The prober sees the (still healthy) shard and restores it.
	deadline := time.Now().Add(5 * time.Second)
	for rt.state(0) != stateUp && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := rt.state(0); got != stateUp {
		t.Fatalf("prober did not restore a healthy shard: %v", got)
	}
	if c.reg.Counter(MetricStateChanges).Value() < 3 {
		t.Error("state changes not counted")
	}
}

// TestMergePreservesDuplicateKernels: the same kernel listed twice
// expands twice, in order, exactly as single-node.
func TestMergePreservesDuplicateKernels(t *testing.T) {
	body := `{"kernels":["k2","k1","k2"],"npes":[2],"page_sizes":[32]}`
	want := baseline(t, "/v1/sweep", body)
	c := newTestCluster(t, 3)
	code, _, got := postJSON(t, c.front.URL+"/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("duplicate-kernel sweep: %d: %s", code, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("duplicate-kernel sweep differs from single-node baseline")
	}
}

// TestRoutedTraceHasForwardSpan pins the router's GET /debug/trace: the
// trace of a routed classify, fetched by ?id=, holds the route span and
// a forward.shardN child under it, and the listing names it.
func TestRoutedTraceHasForwardSpan(t *testing.T) {
	c := newTestCluster(t, 3)
	req, err := http.NewRequest(http.MethodPost, c.front.URL+"/v1/classify", strings.NewReader(`{"kernel":"k2","npe":4}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "routed-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed classify: %d", resp.StatusCode)
	}

	get := func(path string) (int, []byte) {
		resp, err := http.Get(c.front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}
	code, body := get("/debug/trace?id=routed-1")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace?id=routed-1 = %d %s", code, body)
	}
	var out struct {
		Route string `json:"route"`
		Done  bool   `json:"done"`
		Spans []struct {
			Name   string `json:"name"`
			Parent int    `json:"parent"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Route != "/v1/classify" || !out.Done {
		t.Fatalf("trace header = %+v", out)
	}
	want := fmt.Sprintf("forward.shard%d", homeShard(t, c.router, "k2"))
	route, child := -1, false
	for i, sp := range out.Spans {
		if sp.Name == "route" && sp.Parent == -1 {
			route = i
		}
		if route >= 0 && sp.Name == want && sp.Parent == route {
			child = true
		}
	}
	if route < 0 || !child {
		t.Fatalf("trace lacks a route span with a %s child: %+v", want, out.Spans)
	}

	code, body = get("/debug/trace")
	if code != http.StatusOK || !strings.Contains(string(body), `"id": "routed-1"`) || !strings.Contains(string(body), `"done": true`) {
		t.Fatalf("/debug/trace listing = %d %s", code, body)
	}
	if code, _ := get("/debug/trace?id=never-seen"); code != http.StatusNotFound {
		t.Fatalf("unknown trace id = %d, want 404", code)
	}
}
