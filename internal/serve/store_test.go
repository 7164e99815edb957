package serve

// store_test.go — the engine against a durable capture tier: a second
// engine warm-starting from the first's store directory serves the
// same sweep with zero capture executions and bit-identical bodies, a
// store that cannot write still answers, and the drain path reports 503 + Retry-After (never 504) so a
// router can tell "retry on a peer" from "the work is too slow".

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/refstream/store"
)

const sweepGridReq = `{"kernels":["k1","k3","k6"],"npes":[2,8],"page_sizes":[32,64]}`

// TestWarmStartFromCaptureStore is the warm-start acceptance test at
// the engine level: captures persisted by server A are reused by a
// fresh server B sharing the directory — B's capture counter stays 0,
// the store's hit counter rises, and the sweep bodies are identical.
func TestWarmStartFromCaptureStore(t *testing.T) {
	dir := t.TempDir()

	regA := obs.NewRegistry()
	stA, err := store.Open(dir, regA)
	if err != nil {
		t.Fatal(err)
	}
	_, tsA, _ := newTestService(t, Options{Metrics: regA, CaptureStore: stA})
	code, _, bodyA := post(t, tsA, "/v1/sweep", sweepGridReq)
	if code != http.StatusOK {
		t.Fatalf("server A sweep: %d: %s", code, bodyA)
	}
	if counter(regA, MetricStreamCaptures) == 0 {
		t.Fatal("server A executed no captures — the test exercises nothing")
	}
	if counter(regA, store.MetricPuts) == 0 {
		t.Fatal("server A persisted no captures")
	}

	// Server B: the restarted shard. Fresh registry, fresh engine, same
	// directory.
	regB := obs.NewRegistry()
	stB, err := store.Open(dir, regB)
	if err != nil {
		t.Fatal(err)
	}
	_, tsB, _ := newTestService(t, Options{Metrics: regB, CaptureStore: stB})
	code, _, bodyB := post(t, tsB, "/v1/sweep", sweepGridReq)
	if code != http.StatusOK {
		t.Fatalf("server B sweep: %d: %s", code, bodyB)
	}
	if got := counter(regB, MetricStreamCaptures); got != 0 {
		t.Errorf("warm-started server executed %d captures, want 0", got)
	}
	if got := counter(regB, store.MetricHits); got == 0 {
		t.Error("warm-started server recorded no store hits")
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Error("warm-started sweep body differs from the original")
	}
}

// TestStoreWriteFailureStillServes: a directory squatting the capture
// file's name makes every Save fail. The classify still answers 200
// with the body of a server that has no store, and the failure is
// counted in store.put_errors.
func TestStoreWriteFailureStillServes(t *testing.T) {
	const req = `{"kernel":"k1","npe":8,"page_size":32}`
	_, tsPlain, _ := newTestService(t, Options{})
	code, _, want := post(t, tsPlain, "/v1/classify", req)
	if code != http.StatusOK {
		t.Fatalf("classify without a store: %d: %s", code, want)
	}

	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, fmt.Sprintf("%s-%d.rsc", k.Key, k.ClampN(0))), 0o755); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st, err := store.Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestService(t, Options{Metrics: reg, CaptureStore: st})
	code, _, got := post(t, ts, "/v1/classify", req)
	if code != http.StatusOK {
		t.Fatalf("classify over a failing store: %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("body over a failing store differs:\n got %s\nwant %s", got, want)
	}
	if got := counter(reg, store.MetricPutErrors); got != 1 {
		t.Errorf("%s = %d, want 1", store.MetricPutErrors, got)
	}
}

// TestDrainReports503NotRetryableAs504 pins the drain contract: a
// request rejected because the engine is closing gets 503 with
// Retry-After, never 504 — the router's signal that the identical
// request will succeed on a peer.
func TestDrainReports503NotRetryableAs504(t *testing.T) {
	s, ts, _ := newTestService(t, Options{})
	s.eng.Close()
	code, hdr, body := post(t, ts, "/v1/classify", `{"kernel":"k1","npe":4}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("classify against closed engine: %d (%s), want 503", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 from a draining engine is missing Retry-After")
	}
}
