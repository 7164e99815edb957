package serve

// engine_test.go — white-box concurrency tests of the execution core:
// the execute-once guarantee under concurrent identical sweeps, the
// admission control path (429 + Retry-After), graceful drain, and
// per-request deadlines. The execHook seam pins workers so overload
// and drain states are reached deterministically instead of by timing.

import (
	"bytes"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/refstream"
)

// TestConcurrentIdenticalSweepsSingleCapture is the acceptance test of
// the serving tentpole: k concurrent identical /v1/sweep requests
// trigger exactly one reference-stream capture and one execution per
// distinct grid point, every response bit-identical.
func TestConcurrentIdenticalSweepsSingleCapture(t *testing.T) {
	const clients = 8
	_, ts, reg := newTestService(t, Options{MaxInflight: clients})
	req := `{"kernels":["k2"],"npes":[1,2,4]}`

	var (
		wg     sync.WaitGroup
		bodies [clients][]byte
		codes  [clients]int
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, bodies[i] = post(t, ts, "/v1/sweep", req)
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("sweep %d: status %d (body %s)", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("sweep %d body differs:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	// The load-bearing guarantee: one capture, no matter how the 24
	// point lookups interleave.
	if captures := counter(reg, MetricStreamCaptures); captures != 1 {
		t.Fatalf("stream captures = %d, want exactly 1 for %d identical sweeps", captures, clients)
	}
	// Executions: at least one per distinct point, and far fewer than
	// one per lookup (the cache/dedup path must absorb the rest; a rare
	// re-execution in the flight→cache handoff window is legal).
	points := counter(reg, MetricPointsExecuted)
	if points < 3 || points > 6 {
		t.Fatalf("points executed = %d, want ~3 (one per distinct grid point)", points)
	}
	// Accounting identities: every lookup is a hit or a miss; every
	// miss either led an execution or joined one.
	hits, misses := counter(reg, MetricCacheHits), counter(reg, MetricCacheMisses)
	dedup := counter(reg, MetricDedupWaits)
	if hits+misses != int64(clients*3) {
		t.Fatalf("hits %d + misses %d != %d lookups", hits, misses, clients*3)
	}
	if misses != points+dedup {
		t.Fatalf("misses %d != executed %d + dedup-joined %d", misses, points, dedup)
	}
}

// TestSweepRidesBatchReplay pins the sweep handler to the batch path:
// a sweep touching two kernels is served by exactly two batch passes
// (one per capture group), not one replay per point. A classify miss
// rides the same executor: one more batch pass, of one point.
func TestSweepRidesBatchReplay(t *testing.T) {
	_, ts, reg := newTestService(t, Options{})
	code, _, body := post(t, ts, "/v1/sweep", `{"kernels":["k1","k3"],"npes":[1,2,4,8]}`)
	if code != http.StatusOK {
		t.Fatalf("sweep status = %d (body %s)", code, body)
	}
	if groups := counter(reg, refstream.MetricBatchGroups); groups != 2 {
		t.Fatalf("batch groups = %d, want 2 (one per kernel)", groups)
	}
	if points := counter(reg, MetricPointsExecuted); points != 8 {
		t.Fatalf("points executed = %d, want 8", points)
	}
	if code, _, body := post(t, ts, "/v1/classify", `{"kernel":"k1","npe":16}`); code != http.StatusOK {
		t.Fatalf("classify status = %d (body %s)", code, body)
	}
	if groups := counter(reg, refstream.MetricBatchGroups); groups != 3 {
		t.Fatalf("batch groups = %d after one classify miss, want 3", groups)
	}
}

// TestSweepParallelBatchByteIdentical: a multi-kernel sweep, one batch
// task per kernel, heavy enough that each group is cut into several
// chunks (144 FIFO/Clock/Random configurations per stream, in 24 owner
// maps), must produce the same bytes on an eight-worker engine, whose
// tasks run side by side on separate Replayers, as on a single-worker
// engine, whose tasks run one after another.
func TestSweepParallelBatchByteIdentical(t *testing.T) {
	kernels := []string{"k6", "k8", "k18", "k23"}
	req := `{"kernels":["k6","k8","k18","k23"],"n":100,"npes":[2,4,8,16,32,64],"page_sizes":[16,32,64,128],` +
		`"cache_elems":[256,2048],"policies":["fifo","clock","random"]}`

	_, serialTS, _ := newTestService(t, Options{Workers: 1})
	code, _, serialBody := post(t, serialTS, "/v1/sweep", req)
	if code != http.StatusOK {
		t.Fatalf("serial sweep status = %d (body %s)", code, serialBody)
	}

	_, parTS, reg := newTestService(t, Options{Workers: 8, MaxInflight: 16})
	code, _, parBody := post(t, parTS, "/v1/sweep", req)
	if code != http.StatusOK {
		t.Fatalf("parallel sweep status = %d (body %s)", code, parBody)
	}
	if !bytes.Equal(parBody, serialBody) {
		t.Fatalf("eight-worker sweep body differs from single-worker body:\n%s\n%s", parBody, serialBody)
	}
	// Every group must actually have been cut: the partitions histogram
	// records one observation per batch task, each > 1.
	h, ok := reg.Snapshot().Histograms[refstream.MetricBatchPartitions]
	if !ok || h.Count != int64(len(kernels)) {
		t.Fatalf("batch partitions histogram: %+v, want %d observations", h, len(kernels))
	}
	if h.Min <= 1 {
		t.Errorf("a batch pass ran its group as %d partition, want every group cut", h.Min)
	}
}

// pinWorkers installs an execHook that parks every executing worker
// until release is closed. Must run before any traffic.
func pinWorkers(s *Server) (entered chan struct{}, release chan struct{}) {
	entered = make(chan struct{}, 64)
	release = make(chan struct{})
	s.eng.execHook = func() {
		entered <- struct{}{}
		<-release
	}
	return entered, release
}

// TestOverloadReturns429: with one admission slot occupied, the next
// request is rejected with 429 and a Retry-After header, and the
// occupant still completes.
func TestOverloadReturns429(t *testing.T) {
	s, ts, reg := newTestService(t, Options{Workers: 1, MaxInflight: 1})
	entered, release := pinWorkers(s)

	type result struct {
		code int
		body []byte
	}
	first := make(chan result, 1)
	go func() {
		code, _, body := post(t, ts, "/v1/classify", `{"kernel":"k1"}`)
		first <- result{code, body}
	}()
	<-entered // the first request is admitted and executing

	code, hdr, body := post(t, ts, "/v1/classify", `{"kernel":"k1","npe":2}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429 (body %s)", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if rejected := counter(reg, MetricRejected); rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}

	close(release)
	r := <-first
	if r.code != http.StatusOK {
		t.Fatalf("first request: status %d after release (body %s)", r.code, r.body)
	}
}

// TestCloseDrainsInflight: Close blocks until admitted work finishes
// (the in-flight request completes with 200), and afterwards new
// requests are refused with 503.
func TestCloseDrainsInflight(t *testing.T) {
	s, ts, _ := newTestService(t, Options{Workers: 1})
	entered, release := pinWorkers(s)

	type result struct {
		code int
		body []byte
	}
	inflight := make(chan result, 1)
	go func() {
		code, _, body := post(t, ts, "/v1/classify", `{"kernel":"k1"}`)
		inflight <- result{code, body}
	}()
	<-entered

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a request was still executing")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight work finished")
	}
	r := <-inflight
	if r.code != http.StatusOK {
		t.Fatalf("drained request: status %d, want 200 (body %s)", r.code, r.body)
	}

	code, _, _ := post(t, ts, "/v1/classify", `{"kernel":"k1"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-Close request: status %d, want 503", code)
	}
}

// TestDeadlineReturns504: a request whose deadline_ms expires while its
// point is stuck executing gets 504; the execution itself completes
// after release and seeds the cache for the next request.
func TestDeadlineReturns504(t *testing.T) {
	s, ts, reg := newTestService(t, Options{Workers: 1})
	entered, release := pinWorkers(s)
	defer func() {
		// Unpin before the cleanup-ordered Close so the drain completes.
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	waits := func() int64 { return reg.Snapshot().Histograms[MetricStageFlightWaitUS].Count }
	before := waits()
	done := make(chan int, 1)
	go func() {
		code, _, _ := post(t, ts, "/v1/classify", `{"kernel":"k1","deadline_ms":50}`)
		done <- code
	}()
	<-entered
	code := <-done
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", code)
	}
	if dl := counter(reg, MetricDeadlineExceeded); dl != 1 {
		t.Fatalf("deadline_exceeded = %d, want 1", dl)
	}
	// The 504's wait is a stage observation like any other.
	if got := waits() - before; got != 1 {
		t.Errorf("flight_wait histogram grew by %d over the 504, want 1", got)
	}

	// The abandoned execution still lands in the cache.
	close(release)
	deadlineWait := time.Now().Add(5 * time.Second)
	for s.eng.CacheLen() == 0 {
		if time.Now().After(deadlineWait) {
			t.Fatal("abandoned execution never populated the result cache")
		}
		time.Sleep(time.Millisecond)
	}
	code2, _, _ := post(t, ts, "/v1/classify", `{"kernel":"k1","deadline_ms":50}`)
	if code2 != http.StatusOK {
		t.Fatalf("cached retry: status %d, want 200", code2)
	}
}

// TestEngineDeadlineDerivation pins the deadline resolution order:
// explicit deadline_ms, then Options.DefaultDeadline, then the machine
// watchdog rule.
func TestEngineDeadlineDerivation(t *testing.T) {
	e := newEngine(Options{Metrics: obs.NewRegistry()})
	defer e.Close()
	if d := e.deadline(250, 64, 1000); d != 250*time.Millisecond {
		t.Fatalf("explicit deadline = %v, want 250ms", d)
	}
	if d := e.deadline(0, 64, 1000); d < 5*time.Second || d > 60*time.Second {
		t.Fatalf("derived deadline = %v, want within the watchdog's [5s, 60s] envelope", d)
	}

	e2 := newEngine(Options{Metrics: obs.NewRegistry(), DefaultDeadline: 2 * time.Second})
	defer e2.Close()
	if d := e2.deadline(0, 64, 1000); d != 2*time.Second {
		t.Fatalf("configured default = %v, want 2s", d)
	}
}

// TestCloseIdempotent: Close twice (and concurrently) is safe.
func TestCloseIdempotent(t *testing.T) {
	e := newEngine(Options{Metrics: obs.NewRegistry()})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Close()
		}()
	}
	wg.Wait()
	if _, err := e.admit(); err != ErrClosed {
		t.Fatalf("admit after Close = %v, want ErrClosed", err)
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEvictedPendingEntryStrandsNoWaiter: the result table bounds
// pending entries too. With room for one entry, a second distinct
// point evicts the first one's pending entry while that point is
// executing and has a joined waiter; every request must still answer
// with the body a fresh service gives, and the evicted point is not
// cached when it settles.
func TestEvictedPendingEntryStrandsNoWaiter(t *testing.T) {
	s, ts, reg := newTestService(t, Options{Workers: 1, ResultCacheEntries: 1})
	entered, release := pinWorkers(s)
	a, b := `{"kernel":"k1","npe":2}`, `{"kernel":"k1","npe":4}`

	type result struct {
		code int
		body []byte
	}
	send := func(req string) chan result {
		ch := make(chan result, 1)
		go func() {
			code, _, body := post(t, ts, "/v1/classify", req)
			ch <- result{code, body}
		}()
		return ch
	}
	leadA := send(a)
	<-entered // a's execution holds the only worker
	joinA := send(a)
	waitFor(t, "the second a to join", func() bool { return counter(reg, MetricDedupWaits) == 1 })
	leadB := send(b) // evicts a's pending entry
	waitFor(t, "b to lead", func() bool { return counter(reg, MetricCacheMisses) == 3 })
	close(release)

	_, fresh, _ := newTestService(t, Options{})
	for _, c := range []struct {
		name, req string
		ch        chan result
	}{{"lead a", a, leadA}, {"joined a", a, joinA}, {"lead b", b, leadB}} {
		r := <-c.ch
		_, _, want := post(t, fresh, "/v1/classify", c.req)
		if r.code != http.StatusOK || !bytes.Equal(r.body, want) {
			t.Fatalf("%s: status %d body %s, want 200 %s", c.name, r.code, r.body, want)
		}
	}
	if n := s.eng.CacheLen(); n != 1 {
		t.Fatalf("cached bodies = %d, want 1 (b; a was evicted while pending)", n)
	}
	if code, _, _ := post(t, ts, "/v1/classify", a); code != http.StatusOK {
		t.Fatalf("a again: status %d", code)
	}
	if n := counter(reg, MetricPointsExecuted); n != 3 {
		t.Fatalf("points executed = %d, want 3 (a, b, then a afresh)", n)
	}
}

// TestFailedFlightRetriedNotCached: a point whose flight fails leaves
// the result table, so the next request executes it instead of being
// served the error. The failure here is a task that cannot be queued
// before the request's deadline: one worker is pinned on the sweep's
// first capture group, the one-slot queue holds the second, and the
// third fails with the deadline.
func TestFailedFlightRetriedNotCached(t *testing.T) {
	s, ts, reg := newTestService(t, Options{Workers: 1, MaxInflight: 1})
	entered, release := pinWorkers(s)
	sweep := `{"kernels":["k1","k2","k3"],"npes":[2]}`

	code, _, body := post(t, ts, "/v1/sweep", `{"kernels":["k1","k2","k3"],"npes":[2],"deadline_ms":100}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("pinned sweep: status %d, want 504 (body %s)", code, body)
	}
	<-entered
	close(release)
	waitFor(t, "the queued groups to settle", func() bool { return s.eng.CacheLen() == 2 })

	code, _, body = post(t, ts, "/v1/sweep", sweep)
	if code != http.StatusOK {
		t.Fatalf("retried sweep: status %d, want 200 (body %s)", code, body)
	}
	_, fresh, _ := newTestService(t, Options{})
	if _, _, want := post(t, fresh, "/v1/sweep", sweep); !bytes.Equal(body, want) {
		t.Fatalf("retried sweep body differs from a fresh service's:\n%s\n%s", body, want)
	}
	if hits, points := counter(reg, MetricCacheHits), counter(reg, MetricPointsExecuted); hits != 2 || points != 3 {
		t.Fatalf("hits = %d, points executed = %d; want 2 hits and k3 executed on retry (3)", hits, points)
	}
}
