package serve

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzCanonRequest feeds arbitrary bytes to the /v1/classify and
// /v1/sweep request path before admission: decode, then canonPoint or
// canonSweep. Every input must fail with an error or yield points
// inside the limits (kernel resolved, 1 <= NPE <= maxNPE,
// 1 <= n <= maxN, grid <= MaxSweepPoints), and never panic. The sweep
// limit is 64 points rather than the default 4096, so an accepted
// sweep costs microseconds and the fuzzer keeps its pace. The seeds are the bad-request bodies the cluster holds
// to single-node bytes and two valid bodies.
func FuzzCanonRequest(f *testing.F) {
	for _, body := range []string{
		`{"kernel":"nope"}`,
		`{"kernel":"k1","bogus_field":1}`,
		`not json`,
		`{"kernels":["k1"],"npes":[0]}`,
		`{"kernels":["nope"]}`,
		`{"kernels":["k1","nope"]}`,
		`{"kernels":["k1"],"npes":[1,2,4,8,16,32,64],"page_sizes":[1,2,4,8,16,32,64,128,256,512],"cache_elems":[` +
			strings.TrimSuffix(strings.Repeat("16,", 60), ",") + `]}`,
		`{"kernel":"k1","npe":8,"page_size":32,"policy":"fifo","layout":"blockcyclic"}`,
		`{"kernels":["k2","k6"],"npes":[1,2,4],"page_sizes":[16,64],"cache_elems":[0,256]}`,
	} {
		f.Add([]byte(body))
	}
	lim := Options{MaxSweepPoints: 64}.withDefaults().limits()
	f.Fuzz(func(t *testing.T, body []byte) {
		var creq ClassifyRequest
		if decode(httptest.NewRequest("POST", "/v1/classify", bytes.NewReader(body)), &creq) == nil {
			if p, err := canonPoint(creq, lim); err == nil {
				checkPoint(t, p)
			}
		}
		var sreq SweepRequest
		if decode(httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body)), &sreq) == nil {
			pts, err := canonSweep(sreq, lim)
			if err != nil {
				return
			}
			if len(pts) > lim.maxSweepPoints {
				t.Fatalf("sweep of %d points passed the %d-point limit", len(pts), lim.maxSweepPoints)
			}
			for _, p := range pts {
				checkPoint(t, p)
			}
		}
	})
}

func checkPoint(t *testing.T, p point) {
	t.Helper()
	if p.kernel == nil || p.cfg.NPE < 1 || p.cfg.NPE > maxNPE || p.n < 1 || p.n > maxN {
		t.Fatalf("point outside the limits: kernel %v, npe %d, n %d", p.kernel, p.cfg.NPE, p.n)
	}
}
