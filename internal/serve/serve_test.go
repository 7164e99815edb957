package serve

// serve_test.go — black-box HTTP tests over httptest: determinism
// (identical requests → bit-identical bodies), equivalence with the
// direct simulator, canonicalization sharing one cache entry across
// spelled-differently-but-equal requests, strict validation, and the
// sweep/classify body interchangeability contract.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
)

// newTestService builds a Server with its own registry and an httptest
// front end, torn down in dependency order (listener first, then
// engine drain).
func newTestService(t *testing.T, opts Options) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
		opts.Metrics = reg
	}
	if opts.AccessLog == nil {
		opts.AccessLog = io.Discard
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, reg
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s response: %v", path, err)
	}
	return resp.StatusCode, resp.Header, b
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s response: %v", path, err)
	}
	return resp.StatusCode, b
}

func counter(reg *obs.Registry, name string) int64 { return reg.Counter(name).Value() }

// TestClassifyDeterministicBody is the determinism contract at the
// wire: the same request served twice yields bit-identical bodies, the
// second from the result cache.
func TestClassifyDeterministicBody(t *testing.T) {
	_, ts, reg := newTestService(t, Options{})
	req := `{"kernel":"k1","npe":16,"page_size":32}`

	st1, _, b1 := post(t, ts, "/v1/classify", req)
	st2, _, b2 := post(t, ts, "/v1/classify", req)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("status = %d, %d, want 200, 200 (bodies: %s / %s)", st1, st2, b1, b2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("bodies differ:\n%s\n%s", b1, b2)
	}
	if hits := counter(reg, MetricCacheHits); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if misses := counter(reg, MetricCacheMisses); misses != 1 {
		t.Fatalf("cache misses = %d, want 1", misses)
	}

	var pr PointResult
	if err := json.Unmarshal(b1, &pr); err != nil {
		t.Fatalf("decoding body: %v", err)
	}
	if pr.Kernel != "k1" || pr.Config.NPE != 16 || pr.Config.PageSize != 32 {
		t.Fatalf("echoed config wrong: %+v", pr)
	}
	if pr.Engine != "replay" {
		t.Fatalf("engine = %q, want replay for a stream-eligible point", pr.Engine)
	}
	if pr.Totals.Writes == 0 {
		t.Fatalf("totals empty: %+v", pr.Totals)
	}
}

// TestClassifyMatchesDirectSim pins the service to the simulator: the
// served totals/checksums equal a direct sim.Run of the canonical
// config, on the replay path (framed LRU and FIFO, frameless) and on
// the direct path a partial-fill point takes.
func TestClassifyMatchesDirectSim(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	paper := sim.Config{
		NPE: 8, PageSize: 32, CacheElems: 256,
		Policy: cache.LRU, Layout: partition.KindModulo,
	}
	fifo, frameless, partial := paper, paper, paper
	fifo.Policy = cache.FIFO
	frameless.CacheElems = 0
	partial.ModelPartialFill = true
	for _, c := range []struct {
		name, req, kernel, engine string
		cfg                       sim.Config
	}{
		{"lru", `{"kernel":"k2","npe":8,"page_size":32}`, "k2", "replay", paper},
		{"fifo", `{"kernel":"k2","npe":8,"policy":"fifo"}`, "k2", "replay", fifo},
		{"frameless", `{"kernel":"k2","npe":8,"cache_elems":0}`, "k2", "replay", frameless},
		{"partial_fill", `{"kernel":"k1","npe":8,"partial_fill":true}`, "k1", "direct", partial},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, _, body := post(t, ts, "/v1/classify", c.req)
			var pr PointResult
			if err := json.Unmarshal(body, &pr); err != nil {
				t.Fatalf("decoding body %s: %v", body, err)
			}
			if pr.Engine != c.engine {
				t.Errorf("engine = %q, want %q", pr.Engine, c.engine)
			}
			k, err := loops.ByKey(c.kernel)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(k, pr.N, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := countersOut(res.Totals)
			if pr.Totals != want {
				t.Fatalf("served totals %+v != direct sim totals %+v", pr.Totals, want)
			}
			if len(pr.Checksums) != len(res.Checksums) {
				t.Fatalf("checksum count %d != %d", len(pr.Checksums), len(res.Checksums))
			}
			for i, cs := range res.Checksums {
				if pr.Checksums[i].Sum != cs.Sum || pr.Checksums[i].Name != cs.Name {
					t.Fatalf("checksum %d: served %+v != direct %+v", i, pr.Checksums[i], cs)
				}
			}
		})
	}
}

// TestCanonicalizationSharesCacheEntry: with the cache disabled the
// policy is inert, so ce=0+fifo and ce=0+lru canonicalize to one key —
// identical bodies and the second request is a cache hit.
func TestCanonicalizationSharesCacheEntry(t *testing.T) {
	_, ts, reg := newTestService(t, Options{})
	_, _, b1 := post(t, ts, "/v1/classify", `{"kernel":"k3","cache_elems":0,"policy":"fifo"}`)
	_, _, b2 := post(t, ts, "/v1/classify", `{"kernel":"k3","cache_elems":0,"policy":"lru"}`)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("equivalent requests produced different bodies:\n%s\n%s", b1, b2)
	}
	if hits := counter(reg, MetricCacheHits); hits != 1 {
		t.Fatalf("cache hits = %d, want 1 (canonicalization must share the entry)", hits)
	}
	var pr PointResult
	if err := json.Unmarshal(b1, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Config.CacheElems != 0 || pr.Config.Policy != "lru" {
		t.Fatalf("canonical config not echoed: %+v", pr.Config)
	}
}

// TestClassifyValidation rejects malformed requests with 400 and a
// JSON error body, counting them as bad requests.
func TestClassifyValidation(t *testing.T) {
	_, ts, reg := newTestService(t, Options{})
	cases := []struct {
		name, body string
	}{
		{"unknown kernel", `{"kernel":"nope"}`},
		{"unknown field", `{"kernel":"k1","pagesize":32}`},
		{"unknown policy", `{"kernel":"k1","policy":"mru"}`},
		{"unknown layout", `{"kernel":"k1","layout":"diagonal"}`},
		{"negative n", `{"kernel":"k1","n":-1}`},
		{"negative layout_run", `{"kernel":"k1","layout":"blockcyclic","layout_run":-2}`},
		{"not json", `kernel=k1`},
	}
	for _, tc := range cases {
		st, _, body := post(t, ts, "/v1/classify", tc.body)
		if st != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, st, body)
		}
		var eb ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body not JSON: %s", tc.name, body)
		}
	}
	if bad := counter(reg, MetricBadRequests); bad != int64(len(cases)) {
		t.Fatalf("bad_requests = %d, want %d", bad, len(cases))
	}
}

// TestSweepBodiesMatchClassify is the interchangeability contract: each
// point of a sweep body is bit-identical to the /v1/classify body of
// the same point.
func TestSweepBodiesMatchClassify(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	st, _, body := post(t, ts, "/v1/sweep", `{"kernels":["k1"],"npes":[1,2,4],"page_sizes":[32]}`)
	if st != http.StatusOK {
		t.Fatalf("sweep status = %d (body %s)", st, body)
	}
	var sr SweepResult
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Count != 3 || len(sr.Points) != 3 {
		t.Fatalf("count = %d, points = %d, want 3", sr.Count, len(sr.Points))
	}
	for i, npe := range []int{1, 2, 4} {
		_, _, cb := post(t, ts, "/v1/classify",
			fmt.Sprintf(`{"kernel":"k1","npe":%d,"page_size":32,"cache_elems":256}`, npe))
		if !bytes.Equal([]byte(sr.Points[i]), cb) {
			t.Fatalf("sweep point %d differs from its classify body:\n%s\n%s", i, sr.Points[i], cb)
		}
	}
}

// TestSweepPointLimit bounds grid expansion server-side, also (at the
// default limit, whose body bound admits it) for a grid whose point
// count wraps to 0 in int arithmetic.
func TestSweepPointLimit(t *testing.T) {
	_, small, _ := newTestService(t, Options{MaxSweepPoints: 4})
	_, dflt, _ := newTestService(t, Options{})
	for _, tc := range []struct {
		ts  *httptest.Server
		req string
	}{{small, `{"kernels":["k1"],"npes":[1,2,4,8,16]}`}, {dflt, wrappingSweep()}} {
		st, _, body := post(t, tc.ts, "/v1/sweep", tc.req)
		if st != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400 (body %s)", st, body)
		}
		if !bytes.Contains(body, []byte("limit")) {
			t.Fatalf("error body should name the limit: %s", body)
		}
	}
}

// wrappingSweep is a 30 KB sweep whose six axes multiply to 2^64, a
// count that wraps to 0 in int arithmetic.
func wrappingSweep() string {
	list := func(v string, n int) string { return "[" + strings.TrimSuffix(strings.Repeat(v+",", n), ",") + "]" }
	return fmt.Sprintf(`{"kernels":%s,"npes":%s,"page_sizes":%s,"cache_elems":%s,"layouts":%s,"policies":%s}`,
		list(`"k1"`, 1<<11), list("1", 1<<11), list("32", 1<<11), list("256", 1<<11),
		list(`"modulo"`, 1<<10), list(`"lru"`, 1<<10))
}

// TestOversizeBodyIs413 holds classify and sweep bodies to BodyLimit:
// past it the request is answered 413 whatever the body holds, and a
// valid body padded to just under it is served.
func TestOversizeBodyIs413(t *testing.T) {
	s, ts, reg := newTestService(t, Options{MaxSweepPoints: 4})
	limit := int(s.BodyLimit("/v1/sweep"))
	if limit != 4096+4*128 {
		t.Fatalf("BodyLimit = %d, want %d", limit, 4096+4*128)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/classify", `{"kernel":"k1","pad":"` + strings.Repeat("x", limit) + `"}`},
		{"/v1/sweep", `{"kernels":["k1"],"npes":[` + strings.Repeat("1,", limit/2) + `1]}`},
	} {
		st, _, body := post(t, ts, tc.path, tc.body)
		if st != http.StatusRequestEntityTooLarge || !bytes.Contains(body, []byte("too large")) {
			t.Errorf("%s with a %d-byte body: status %d, body %s; want 413", tc.path, len(tc.body), st, body)
		}
	}
	if bad := counter(reg, MetricBadRequests); bad != 2 {
		t.Errorf("bad_requests = %d, want 2", bad)
	}
	padded := `{"kernel":"k1","npe":4}`
	padded += strings.Repeat(" ", limit-len(padded))
	if st, _, body := post(t, ts, "/v1/classify", padded); st != http.StatusOK {
		t.Errorf("a %d-byte classify body: status %d, body %s; want 200", len(padded), st, body)
	}
}

// TestReadEndpoints smoke-tests /v1/kernels, /healthz and /metrics.
func TestReadEndpoints(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})

	st, body := get(t, ts, "/v1/kernels")
	if st != http.StatusOK {
		t.Fatalf("/v1/kernels status = %d", st)
	}
	var infos []KernelInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(loops.All()) {
		t.Fatalf("kernels listed = %d, want %d", len(infos), len(loops.All()))
	}
	paper := 0
	for _, ki := range infos {
		if ki.Paper {
			paper++
		}
	}
	if paper != len(loops.PaperSet()) {
		t.Fatalf("paper kernels flagged = %d, want %d", paper, len(loops.PaperSet()))
	}

	st, body = get(t, ts, "/healthz")
	if st != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("/healthz = %d %s", st, body)
	}
	var health struct {
		Status string `json:"status"`
		Build  struct {
			Go string `json:"go"`
		} `json:"build"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("/healthz body not JSON: %v", err)
	}
	if health.Status != "ok" || health.Build.Go == "" {
		t.Fatalf("/healthz missing status or build info: %s", body)
	}

	post(t, ts, "/v1/classify", `{"kernel":"k1"}`)
	st, body = get(t, ts, "/metrics")
	if st != http.StatusOK {
		t.Fatalf("/metrics status = %d", st)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters[MetricClassifyRequests] != 1 {
		t.Fatalf("metrics snapshot missing %s: %v", MetricClassifyRequests, snap.Counters)
	}
}

// TestPerPEAndTrafficOptIn: the heavy response sections appear only on
// request, and opting in changes the cache key rather than the cached
// body.
func TestPerPEAndTrafficOptIn(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	_, _, slim := post(t, ts, "/v1/classify", `{"kernel":"k1","npe":4}`)
	_, _, fat := post(t, ts, "/v1/classify", `{"kernel":"k1","npe":4,"include_per_pe":true,"include_traffic":true}`)

	var sp, fp PointResult
	if err := json.Unmarshal(slim, &sp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fat, &fp); err != nil {
		t.Fatal(err)
	}
	if len(sp.PerPE) != 0 || len(sp.Traffic) != 0 {
		t.Fatalf("default body carries heavy sections: %s", slim)
	}
	if len(fp.PerPE) != 4 || len(fp.Traffic) != 4 {
		t.Fatalf("opt-in body missing sections: per_pe=%d traffic=%d", len(fp.PerPE), len(fp.Traffic))
	}
	if sp.Totals != fp.Totals {
		t.Fatalf("totals differ between slim and fat bodies: %+v vs %+v", sp.Totals, fp.Totals)
	}
}
