package serve

// trace_test.go — the observability layer's contracts at the wire:
// tracing observes and never participates (bodies byte-identical with
// and without the full tracing/logging stack), X-Request-ID round-
// trips, the access log emits one parseable JSON line per request, the
// trace ring retains and bounds, /metrics negotiates the Prometheus
// exposition, and the instrumented sweep path still matches a direct
// refstream capture + batch replay bit for bit.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/refstream"
	"repro/internal/sim"
)

// TestTracedBodiesByteIdentical is the observation-not-participation
// contract: a server with the full observability stack (registry,
// trace ring, access log, request IDs) returns bodies byte-identical
// to a bare server's for the same requests, across classify and sweep,
// cold and warm.
func TestTracedBodiesByteIdentical(t *testing.T) {
	_, bare, _ := newTestService(t, Options{})
	var buf syncBuffer
	_, full, _ := newTestService(t, Options{AccessLog: &buf})

	reqs := []struct{ path, body string }{
		{"/v1/classify", `{"kernel":"k1","npe":16,"page_size":32}`},
		{"/v1/classify", `{"kernel":"k6","npe":8,"partial_fill":true}`},
		{"/v1/sweep", `{"kernels":["k1","k12"],"npes":[4,16],"page_sizes":[32]}`},
	}
	for _, rq := range reqs {
		for pass := 0; pass < 2; pass++ { // cold (execute) then warm (cache)
			st1, _, b1 := post(t, bare, rq.path, rq.body)
			st2, _, b2 := post(t, full, rq.path, rq.body)
			if st1 != http.StatusOK || st2 != http.StatusOK {
				t.Fatalf("%s pass %d: status %d vs %d", rq.path, pass, st1, st2)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("%s pass %d: traced body differs from untraced:\n%s\n%s", rq.path, pass, b1, b2)
			}
		}
	}
}

// TestRequestIDRoundTrip pins the ID contract: a legal caller ID is
// echoed and retrievable from /debug/trace; an illegal one is replaced
// with a generated ID; a missing one is generated.
func TestRequestIDRoundTrip(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	body := `{"kernel":"k1","npe":16,"page_size":32}`

	do := func(id string) (string, int) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.Header.Get("X-Request-ID"), resp.StatusCode
	}

	if got, st := do("my-req.1_2"); st != http.StatusOK || got != "my-req.1_2" {
		t.Fatalf("legal ID not echoed: got %q status %d", got, st)
	}
	if got, _ := do("bad id;drop"); got == "" || got == "bad id;drop" {
		t.Fatalf("illegal ID not replaced: %q", got)
	}
	if got, _ := do(""); got == "" {
		t.Fatal("missing ID not generated")
	}

	// The accepted ID is retrievable from the ring with its span tree.
	st, body2 := get(t, ts, "/debug/trace?id=my-req.1_2")
	if st != http.StatusOK {
		t.Fatalf("/debug/trace?id= lookup = %d %s", st, body2)
	}
	var out struct {
		ID     string `json:"id"`
		Route  string `json:"route"`
		Status int    `json:"status"`
		Done   bool   `json:"done"`
		Spans  []struct {
			Name   string `json:"name"`
			Parent int    `json:"parent"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(body2, &out); err != nil {
		t.Fatalf("trace body not JSON: %v", err)
	}
	if out.ID != "my-req.1_2" || out.Route != "/v1/classify" || out.Status != http.StatusOK || !out.Done {
		t.Fatalf("trace header wrong: %+v", out)
	}
	stages := map[string]bool{}
	for _, sp := range out.Spans {
		stages[sp.Name] = true
	}
	for _, want := range []string{"decode", "admit_wait", "cache_lookup", "flight_wait", "capture", "replay", "encode"} {
		if !stages[want] {
			t.Fatalf("trace missing %q span; have %v", want, stages)
		}
	}

	// Unknown IDs 404.
	if st, _ := get(t, ts, "/debug/trace?id=never-seen"); st != http.StatusNotFound {
		t.Fatalf("unknown trace id = %d, want 404", st)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the access
// log.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestAccessLogLines asserts one parseable JSON line per request with
// the promised fields.
func TestAccessLogLines(t *testing.T) {
	var buf syncBuffer
	_, ts, _ := newTestService(t, Options{AccessLog: &buf})

	post(t, ts, "/v1/classify", `{"kernel":"k1","npe":16,"page_size":32}`)
	post(t, ts, "/v1/classify", `{"kernel":"k1","npe":16,"page_size":32}`) // cache hit
	post(t, ts, "/v1/classify", `{"kernel":"nope"}`)                       // 400

	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("access-log line not JSON: %v: %s", err, sc.Text())
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("access log lines = %d, want 3:\n%s", len(lines), buf.String())
	}
	for i, m := range lines {
		for _, k := range []string{"ts", "id", "route", "status", "dur_ms"} {
			if _, ok := m[k]; !ok {
				t.Fatalf("line %d missing %q: %v", i, k, m)
			}
		}
		if m["route"] != "/v1/classify" {
			t.Fatalf("line %d route = %v", i, m["route"])
		}
	}
	if lines[0]["status"].(float64) != 200 || lines[2]["status"].(float64) != 400 {
		t.Fatalf("statuses wrong: %v", lines)
	}
	// The miss line records cache_misses, the hit line cache_hits.
	if c := lines[0]["counts"].(map[string]any); c["cache_misses"].(float64) != 1 {
		t.Fatalf("first line counts = %v, want a cache miss", c)
	}
	if c := lines[1]["counts"].(map[string]any); c["cache_hits"].(float64) != 1 {
		t.Fatalf("second line counts = %v, want a cache hit", c)
	}
	if _, ok := lines[0]["stages_us"].(map[string]any)["replay"]; !ok {
		t.Fatalf("miss line missing replay stage: %v", lines[0]["stages_us"])
	}
}

// TestTraceRingBound pins the /debug/trace listing: newest first,
// bounded by the ring's trace.RingEntries.
func TestTraceRingBound(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	const extra = 3
	total := trace.RingEntries + extra
	for i := 0; i < total; i++ {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify",
			strings.NewReader(`{"kernel":"k1","npe":16,"page_size":32}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", fmt.Sprintf("req-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	st, body := get(t, ts, fmt.Sprintf("/debug/trace?n=%d", total))
	if st != http.StatusOK {
		t.Fatalf("/debug/trace = %d", st)
	}
	var list []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("listing not JSON: %v", err)
	}
	if len(list) != trace.RingEntries {
		t.Fatalf("ring retained %d traces, want %d", len(list), trace.RingEntries)
	}
	if first, last := fmt.Sprintf("req-%d", total-1), fmt.Sprintf("req-%d", extra); list[0].ID != first || list[len(list)-1].ID != last {
		t.Fatalf("listing runs %s..%s, want %s..%s", list[0].ID, list[len(list)-1].ID, first, last)
	}
	// Evicted IDs are gone.
	if st, _ := get(t, ts, "/debug/trace?id=req-0"); st != http.StatusNotFound {
		t.Fatalf("evicted trace still served: %d", st)
	}
}

// TestInstrumentedSweepMatchesBatchReplay is the determinism pin for
// the instrumented execution path: a traced sweep's point bodies are
// bit-identical to encoding a direct refstream Capture + RunBatchN of
// the same canonical points.
func TestInstrumentedSweepMatchesBatchReplay(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	req := `{"kernels":["k12"],"npes":[4,16],"page_sizes":[32,64]}`
	st, _, body := post(t, ts, "/v1/sweep", req)
	if st != http.StatusOK {
		t.Fatalf("sweep = %d %s", st, body)
	}
	var sr struct {
		Points []json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	var sreq SweepRequest
	if err := json.Unmarshal([]byte(req), &sreq); err != nil {
		t.Fatal(err)
	}
	pts, err := canonSweep(sreq, Options{}.withDefaults().limits())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(sr.Points) {
		t.Fatalf("point count %d vs %d", len(pts), len(sr.Points))
	}
	stream, err := refstream.Capture(pts[0].kernel, pts[0].n)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]sim.Config, len(pts))
	for i, p := range pts {
		cfgs[i] = p.cfg
	}
	res, err := refstream.NewReplayer().RunBatchN(stream, cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		want, err := encodePoint(p, "replay", res[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, sr.Points[i]) {
			t.Fatalf("point %d: served body differs from direct batch replay:\n%s\n%s", i, sr.Points[i], want)
		}
	}
}

// TestMetricsPromExposition covers the format negotiation and the
// exposition content: ?format=prom and an Accept header both select
// the text format, the default stays JSON, and both carry
// Cache-Control: no-store.
func TestMetricsPromExposition(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	post(t, ts, "/v1/classify", `{"kernel":"k1","npe":16,"page_size":32}`)

	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("prom Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("prom Cache-Control = %q, want no-store", cc)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		"# TYPE serve_classify_requests counter",
		"serve_classify_requests 1",
		"# TYPE serve_stage_replay_us histogram",
		`serve_stage_replay_us_bucket{le="+Inf"}`,
		"serve_stage_replay_us_count 1",
		"build_info 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Accept negotiation: text/plain → prom; default and explicit JSON
	// accept → JSON object.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("Accept: text/plain negotiated %q", ct)
	}
	st, body := get(t, ts, "/metrics")
	if st != http.StatusOK || !json.Valid(body) || body[0] != '{' {
		t.Fatalf("default /metrics not a JSON object: %d %.80s", st, body)
	}

	// Headers on the other read endpoints: healthz is also no-store.
	resp3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if cc := resp3.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("healthz Cache-Control = %q, want no-store", cc)
	}
}

// TestStageHistogramsPopulated asserts the serve.stage.* histograms
// observe every request uniformly — the engine records them even when
// a handler isn't traced.
func TestStageHistogramsPopulated(t *testing.T) {
	_, ts, reg := newTestService(t, Options{})
	post(t, ts, "/v1/classify", `{"kernel":"k1","npe":16,"page_size":32}`)
	post(t, ts, "/v1/classify", `{"kernel":"k1","npe":16,"page_size":32}`)
	post(t, ts, "/v1/classify", `{"kernel":"k6","npe":8,"partial_fill":true}`)
	post(t, ts, "/v1/sweep", `{"kernels":["k1"],"npes":[2,4]}`)

	snap := reg.Snapshot()
	for name, wantMin := range map[string]int64{
		MetricStageDecodeUS:      4,
		MetricStageAdmitWaitUS:   4,
		MetricStageCacheLookupUS: 4,
		MetricStageFlightWaitUS:  3, // the warm classify never waits
		MetricStageCaptureUS:     2,
		MetricStageReplayUS:      2,
		MetricStageDirectUS:      1, // the partial-fill point
		MetricStageEncodeUS:      3,
	} {
		if got := snap.Histograms[name].Count; got < wantMin {
			t.Errorf("%s count = %d, want >= %d", name, got, wantMin)
		}
	}
}
