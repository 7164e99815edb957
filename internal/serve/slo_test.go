package serve

// slo_test.go — the env-gated serving SLO check, in the style of the
// REFSTREAM_PERF_GATE: skipped by default (shared CI runners make
// latency assertions flaky as hard failures), enabled in the dedicated
// CI step with SERVE_SLO_GATE=1. It drives a seeded duplicate/unique
// request mix against an in-process server and asserts (a) every hot
// stage histogram actually observed this run and (b) the server-side
// stage p99s stay inside generous ceilings — catching only gross
// regressions (an accidental O(n^2), a lock on the hot path), not
// noise.

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/loops"
)

// sloMix is the gate's request schedule, a pure function of the seed:
// every sweepEvery-th request a one-kernel /v1/sweep, the rest
// /v1/classify drawn from a small hot set with probability hot and
// otherwise from a unique tail of kernels × PE counts × page sizes ×
// cache sizes.
func sloMix(t *testing.T, seed int64, requests, sweepEvery int, hot float64) (paths, bodies []string) {
	t.Helper()
	hotSet := []ClassifyRequest{
		{Kernel: "k1"},
		{Kernel: "k1", NPE: 64},
		{Kernel: "k2", NPE: 16},
		{Kernel: "k12", NPE: 32, PageSize: 64},
	}
	kernels := loops.PaperSet()
	npes := []int{1, 2, 4, 8, 16, 32, 64}
	pss := []int{16, 32, 64, 128}
	ces := []int{0, 128, 256, 512}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < requests; i++ {
		var path string
		var req any
		switch {
		case (i+1)%sweepEvery == 0:
			path = "/v1/sweep"
			req = SweepRequest{Kernels: []string{kernels[rng.Intn(len(kernels))].Key}, PageSizes: []int{32, 64}}
		case rng.Float64() < hot:
			path = "/v1/classify"
			req = hotSet[rng.Intn(len(hotSet))]
		default:
			path = "/v1/classify"
			req = ClassifyRequest{
				Kernel:     kernels[rng.Intn(len(kernels))].Key,
				NPE:        npes[rng.Intn(len(npes))],
				PageSize:   pss[rng.Intn(len(pss))],
				CacheElems: &ces[rng.Intn(len(ces))],
			}
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
		bodies = append(bodies, string(b))
	}
	return paths, bodies
}

func TestServeStageSLOGate(t *testing.T) {
	if os.Getenv("SERVE_SLO_GATE") == "" {
		t.Skip("set SERVE_SLO_GATE=1 to run the serving SLO gate")
	}
	_, ts, reg := newTestService(t, Options{})
	const requests, concurrency = 600, 8
	paths, bodies := sloMix(t, 7, requests, 25, 0.8)

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: concurrency}}
	defer client.CloseIdleConnections()
	status := make([]int, requests)
	errs := make([]error, requests)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				resp, err := client.Post(ts.URL+paths[i], "application/json", strings.NewReader(bodies[i]))
				if err != nil {
					errs[i] = err
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				status[i] = resp.StatusCode
			}
		}()
	}
	for i := range paths {
		next <- i
	}
	close(next)
	wg.Wait()
	// 429 is admission pressure, not a failure of the served path.
	for i := range paths {
		if errs[i] != nil {
			t.Fatalf("request %d (%s): %v", i, paths[i], errs[i])
		}
		if status[i] != http.StatusOK && status[i] != http.StatusTooManyRequests {
			t.Fatalf("request %d (%s %s): status %d", i, paths[i], bodies[i], status[i])
		}
	}

	// Ceilings in milliseconds, far above healthy numbers (typical p99s
	// are well under a millisecond for the cheap stages): only a gross
	// regression trips them. serve.stage.direct_us is absent on purpose —
	// the mix never sends partial_fill. The registry is this test's own,
	// so its histograms hold exactly this run's observations.
	ceilings := map[string]float64{
		MetricStageDecodeUS:      50,
		MetricStageAdmitWaitUS:   50,
		MetricStageCacheLookupUS: 50,
		MetricStageCaptureUS:     2000,
		MetricStageReplayUS:      2000,
		MetricStageEncodeUS:      100,
		MetricStageFlightWaitUS:  5000,
	}
	hists := reg.Snapshot().Histograms
	for name, ceiling := range ceilings {
		h, ok := hists[name]
		if !ok || h.Count == 0 {
			t.Errorf("stage %s never observed during the load run", name)
			continue
		}
		if p99 := h.Quantile(0.99) / 1000; p99 > ceiling { // histograms record microseconds
			t.Errorf("stage %s p99 = %.3fms exceeds the %.0fms SLO ceiling (n=%d)", name, p99, ceiling, h.Count)
		}
	}
}
