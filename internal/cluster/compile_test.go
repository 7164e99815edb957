package cluster

// compile_test.go — the compile path through the router: a routed
// POST /v1/compile answers with the single-node bytes, replicates the
// kernel to every shard (classify-after-compile works shard-side
// immediately), routed classify/sweep over a compiled id reproduce the
// single-node bodies, and a shard that loses its in-memory registry
// (restart) is healed on first use via the 404 unknown_kernel retry.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/kernelreg"
	"repro/internal/obs"
	"repro/internal/serve"
)

// clusterUserSource is a small SA-clean user kernel.
const clusterUserSource = `PROGRAM clusterk
  ARRAY A(n+1) OUTPUT
  ARRAY B(n+1) INPUT
  DO i = 1, n
    A(i) = 3*B(i)
  END DO
END
`

func compileReqBody(t *testing.T) string {
	t.Helper()
	b, err := json.Marshal(kernelreg.CompileRequest{Source: clusterUserSource})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// singleNode boots a fresh single-node server, compiles the user
// kernel, and serves path/body — the baseline bytes for every routed
// configuration.
func singleNode(t *testing.T, compileBody, path, body string) []byte {
	t.Helper()
	s := serve.New(serve.Options{Metrics: obs.NewRegistry(), AccessLog: io.Discard})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	code, _, b := postJSON(t, ts.URL+"/v1/compile", compileBody)
	if code != http.StatusOK {
		t.Fatalf("baseline compile: %d: %s", code, b)
	}
	code, _, b = postJSON(t, ts.URL+path, body)
	if code != http.StatusOK {
		t.Fatalf("baseline %s: %d: %s", path, code, b)
	}
	return b
}

func TestCompileRoutedByteIdentity(t *testing.T) {
	c := newTestCluster(t, 3)
	body := compileReqBody(t)

	code, _, raw := postJSON(t, c.front.URL+"/v1/compile", body)
	if code != http.StatusOK {
		t.Fatalf("routed compile: %d: %s", code, raw)
	}
	var resp kernelreg.CompileResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}

	// The routed compile body is the single-node compile body.
	s := serve.New(serve.Options{Metrics: obs.NewRegistry(), AccessLog: io.Discard})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	bcode, _, braw := postJSON(t, ts.URL+"/v1/compile", body)
	if bcode != http.StatusOK || !bytes.Equal(raw, braw) {
		t.Fatalf("routed compile body differs from single-node:\n%s\n%s", raw, braw)
	}

	// Replication reached every shard: each serves the compiled kernel
	// directly, no router in the path.
	classify := fmt.Sprintf(`{"kernel":%q,"npe":8}`, resp.Kernel)
	for i, sh := range c.shards {
		scode, _, sbody := postJSON(t, sh.URL+"/v1/classify", classify)
		if scode != http.StatusOK {
			t.Fatalf("shard %d classify after replication: %d: %s", i, scode, sbody)
		}
	}
	if got := c.router.cReplications.Value(); got == 0 {
		t.Fatalf("%s = 0 after a routed compile", MetricReplications)
	}

	// Routed classify and sweep over the compiled id reproduce the
	// single-node bytes.
	ccode, _, cbody := postJSON(t, c.front.URL+"/v1/classify", classify)
	if ccode != http.StatusOK {
		t.Fatalf("routed classify: %d: %s", ccode, cbody)
	}
	if want := singleNode(t, body, "/v1/classify", classify); !bytes.Equal(cbody, want) {
		t.Fatalf("routed classify body differs from single-node:\n%s\n%s", cbody, want)
	}

	sweep := fmt.Sprintf(`{"kernels":[%q,"k1","k3"],"npes":[2,8],"page_sizes":[32,64]}`, resp.Kernel)
	wcode, _, wbody := postJSON(t, c.front.URL+"/v1/sweep", sweep)
	if wcode != http.StatusOK {
		t.Fatalf("routed sweep: %d: %s", wcode, wbody)
	}
	if want := singleNode(t, body, "/v1/sweep", sweep); !bytes.Equal(wbody, want) {
		t.Fatal("routed sweep body over a compiled kernel differs from single-node")
	}

	// Repeat the routed sweep: bit-identical on the warm path too.
	_, _, wbody2 := postJSON(t, c.front.URL+"/v1/sweep", sweep)
	if !bytes.Equal(wbody, wbody2) {
		t.Fatal("repeated routed sweep bodies differ")
	}
}

// TestCompileSelfHeal models a shard restart: every shard is replaced
// by a fresh server (empty registry), so the first routed classify of
// the compiled kernel meets 404 unknown_kernel — and the router must
// re-replicate from its local registry and retry, not relay the 404.
func TestCompileSelfHeal(t *testing.T) {
	c := newTestCluster(t, 3)
	body := compileReqBody(t)
	code, _, raw := postJSON(t, c.front.URL+"/v1/compile", body)
	if code != http.StatusOK {
		t.Fatalf("routed compile: %d: %s", code, raw)
	}
	var resp kernelreg.CompileResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}

	for i := range c.handlers {
		sreg := obs.NewRegistry()
		s := serve.New(serve.Options{Metrics: sreg, AccessLog: io.Discard})
		t.Cleanup(s.Close)
		c.handlers[i].swap(s.Handler())
	}

	classify := fmt.Sprintf(`{"kernel":%q,"npe":8}`, resp.Kernel)
	ccode, _, cbody := postJSON(t, c.front.URL+"/v1/classify", classify)
	if ccode != http.StatusOK {
		t.Fatalf("classify after shard restart: %d: %s", ccode, cbody)
	}
	if want := singleNode(t, body, "/v1/classify", classify); !bytes.Equal(cbody, want) {
		t.Fatalf("healed classify body differs from single-node:\n%s\n%s", cbody, want)
	}

	// The sweep path heals the same way.
	for i := range c.handlers {
		s := serve.New(serve.Options{Metrics: obs.NewRegistry(), AccessLog: io.Discard})
		t.Cleanup(s.Close)
		c.handlers[i].swap(s.Handler())
	}
	sweep := fmt.Sprintf(`{"kernels":[%q],"npes":[2,8]}`, resp.Kernel)
	wcode, _, wbody := postJSON(t, c.front.URL+"/v1/sweep", sweep)
	if wcode != http.StatusOK {
		t.Fatalf("sweep after shard restart: %d: %s", wcode, wbody)
	}
	if want := singleNode(t, body, "/v1/sweep", sweep); !bytes.Equal(wbody, want) {
		t.Fatal("healed sweep body differs from single-node")
	}
}
