package cluster

// chaos_test.go — the process-level acceptance suite. Shards here are
// real OS processes (the test binary re-execed into shard mode via
// TestMain), killed with SIGKILL mid-flight:
//
//   - TestChaosKillShardMidSweep: SIGKILL the home shard of the
//     standard 308-point grid while that sweep is in flight on it; the
//     router completes the sweep via peer failover and the body is
//     byte-identical to the single-node baseline. Seeded by CHAOS_SEED
//     (CI runs 3 seeds under -race).
//   - TestWarmStartAcrossShardRestart: kill -9 a shard backed by a
//     capture store, restart it, and the next sweep re-serves from
//     disk — zero capture executions, store hits instead, identical
//     bytes.
//
// The shard process is a full serve.Server on an ephemeral port that
// publishes its address through an addr file (temp + rename), exactly
// what cmd/lfksimd's -addr-file flag does.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/refstream/store"
	"repro/internal/serve"
)

const (
	envShardMain = "CLUSTER_TEST_SHARD_MAIN"
	envAddrFile  = "CLUSTER_TEST_ADDR_FILE"
	envStoreDir  = "CLUSTER_TEST_STORE_DIR"
)

// standardGridReq expands to the paper's standard 308-point grid:
// 11 kernels × 7 NPEs × 2 page sizes × 2 cache sizes (docs/PERF.md).
const standardGridReq = `{"page_sizes":[32,64],"cache_elems":[0,256]}`

// TestMain turns the test binary into a shard server when re-execed
// with the shard env var: the hermetic way to get real processes to
// kill without building a second binary.
func TestMain(m *testing.M) {
	if os.Getenv(envShardMain) == "1" {
		shardMain()
		return
	}
	os.Exit(m.Run())
}

// shardMain is the shard process: a single-node classification server
// on an ephemeral port, its address published via addr file, with an
// optional disk-backed capture store.
func shardMain() {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "shard:", err)
		os.Exit(1)
	}
	reg := obs.NewRegistry()
	opts := serve.Options{Metrics: reg, AccessLog: io.Discard}
	if dir := os.Getenv(envStoreDir); dir != "" {
		st, err := store.Open(dir, reg)
		if err != nil {
			fail(err)
		}
		opts.CaptureStore = st
	}
	srv := serve.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	addrFile := os.Getenv(envAddrFile)
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
		fail(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		fail(err)
	}
	fail(http.Serve(ln, srv.Handler()))
}

// shardCommand builds the Supervisor command: re-exec this test binary
// in shard mode. storeDir may be empty (no durable tier).
func shardCommand(storeDir string) func(id int, addrFile string) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		panic(err)
	}
	return func(id int, addrFile string) *exec.Cmd {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			envShardMain+"=1",
			envAddrFile+"="+addrFile,
			envStoreDir+"="+storeDir,
		)
		cmd.Stderr = os.Stderr
		return cmd
	}
}

// chaosSeed reads CHAOS_SEED (the CI matrix knob); default 1.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	v := os.Getenv("CHAOS_SEED")
	if v == "" {
		return 1
	}
	seed, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q: %v", v, err)
	}
	return seed
}

func metricsSnapshot(t *testing.T, base string) obs.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	return snap
}

func TestChaosKillShardMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos test")
	}
	seed := chaosSeed(t)

	// Single-node baseline bytes for the full standard grid.
	want := baseline(t, "/v1/sweep", standardGridReq)

	sup, err := StartSupervisor(SupervisorOptions{Shards: 3, Command: shardCommand("")})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	reg := obs.NewRegistry()
	rt, err := NewRouter(RouterOptions{
		Shards: 3,
		AddrOf: sup.Addr,
		PIDOf:  sup.PID,
		Local:  serve.Options{Metrics: reg, AccessLog: io.Discard},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	type reply struct {
		code int
		body []byte
		err  error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := http.Post(front.URL+"/v1/sweep", "application/json", strings.NewReader(standardGridReq))
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		replied <- reply{resp.StatusCode, b, err}
	}()

	// SIGKILL the sweep's home shard mid-sweep: the grid names no
	// kernels, so it is placed by the paper set's first. The kill is
	// placed by the victim's own progress, read from its /metrics: once
	// it has admitted the sweep and executed a seed-chosen number of the
	// grid's 28-point kernel groups (0 to 4 of 11, under half the grid,
	// so the victim is still busy when the kill lands); the three CI
	// seeds target 1, 2 and 4 groups.
	victim := homeShard(t, rt, loops.PaperSet()[0].Key)
	const gridPoints, groupPoints = 308, 308 / 11
	target := groupPoints * (seed % 5)
	base := "http://" + sup.Addr(victim)
	deadline := time.Now().Add(30 * time.Second)
	var executed int64
	for {
		snap := metricsSnapshot(t, base)
		executed = snap.Counters[serve.MetricPointsExecuted]
		if snap.Gauges[serve.MetricInflight] > 0 && executed >= target {
			break
		}
		select {
		case r := <-replied:
			t.Fatalf("the sweep was answered (%d, %v) before shard %d had executed %d points", r.code, r.err, victim, target)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d executed %d points in 30s, never %d with the sweep in flight", victim, executed, target)
		}
		time.Sleep(time.Millisecond)
	}
	if err := sup.Kill(victim); err != nil {
		t.Fatalf("killing shard %d: %v", victim, err)
	}
	r := <-replied
	if r.err != nil {
		t.Fatalf("sweep: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("sweep with shard %d killed after %d points: %d: %s", victim, target, r.code, r.body)
	}
	if !bytes.Equal(want, r.body) {
		t.Fatalf("sweep body after mid-flight SIGKILL differs from single-node baseline (%d vs %d bytes)", len(r.body), len(want))
	}
	n := reg.Counter(MetricFailovers).Value()
	t.Logf("killed home shard %d after %d points: %d failovers", victim, executed, n)
	switch failures := reg.Counter(MetricForwardFailures).Value(); {
	case n >= 1:
	case failures == 0 && executed > gridPoints/2:
		// The poll answered late, with the victim past half the grid:
		// it finished the sweep before the kill landed.
		t.Logf("shard %d answered before the kill (%d of %d points seen executed): no failover to check",
			victim, executed, gridPoints)
	default:
		t.Errorf("no failover after the home shard was killed with %d of %d points executed (%d forward failures)",
			executed, gridPoints, failures)
	}

	// The router must converge on degraded-but-serving: the prober
	// marks the dead shard down, and classifies keep answering.
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(front.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), `"status":"degraded"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported degraded after the kill: %s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	code, _, body := postJSON(t, front.URL+"/v1/classify", `{"kernel":"k1","npe":8}`)
	if code != http.StatusOK {
		t.Fatalf("classify after kill: %d: %s", code, body)
	}
}

func TestWarmStartAcrossShardRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos test")
	}
	storeDir := t.TempDir()
	sup, err := StartSupervisor(SupervisorOptions{Shards: 1, Command: shardCommand(storeDir)})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	const sweepReq = `{"kernels":["k1","k2","k3","k6"],"npes":[2,8],"page_sizes":[32,64]}`
	base := "http://" + sup.Addr(0)
	code, _, bodyA := postJSON(t, base+"/v1/sweep", sweepReq)
	if code != http.StatusOK {
		t.Fatalf("cold sweep: %d: %s", code, bodyA)
	}
	snap := metricsSnapshot(t, base)
	if snap.Counters[serve.MetricStreamCaptures] == 0 {
		t.Fatal("cold shard executed no captures — the test exercises nothing")
	}
	if snap.Counters[store.MetricPuts] == 0 {
		t.Fatal("cold shard persisted no captures")
	}

	// kill -9, then restart into the same store directory.
	if err := sup.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := sup.Restart(0); err != nil {
		t.Fatal(err)
	}
	base = "http://" + sup.Addr(0)
	code, _, bodyB := postJSON(t, base+"/v1/sweep", sweepReq)
	if code != http.StatusOK {
		t.Fatalf("warm sweep: %d: %s", code, bodyB)
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatal("warm-started sweep body differs from the pre-kill body")
	}
	snap = metricsSnapshot(t, base)
	if got := snap.Counters[serve.MetricStreamCaptures]; got != 0 {
		t.Errorf("restarted shard executed %d captures, want 0 (warm start)", got)
	}
	if got := snap.Counters[store.MetricHits]; got == 0 {
		t.Error("restarted shard recorded no store hits")
	}
}

// TestSupervisorAddrFileDiscovery pins the addr-file contract at the
// supervisor level: a fresh shard publishes a dialable address, Kill
// reports a -1 PID, Restart publishes a new address, and Stop removes
// the supervisor's addr directory, crash debris included.
func TestSupervisorAddrFileDiscovery(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level test")
	}
	sup, err := StartSupervisor(SupervisorOptions{Shards: 1, Command: shardCommand("")})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	if sup.PID(0) <= 0 {
		t.Fatalf("PID(0) = %d, want a live pid", sup.PID(0))
	}
	code, _, body := postJSON(t, "http://"+sup.Addr(0)+"/v1/classify", `{"kernel":"k1","npe":2}`)
	if code != http.StatusOK {
		t.Fatalf("classify against spawned shard: %d: %s", code, body)
	}
	if err := sup.Kill(0); err != nil {
		t.Fatal(err)
	}
	if got := sup.PID(0); got != -1 {
		t.Fatalf("PID after kill = %d, want -1", got)
	}
	// The addr file of the dead shard must not be reused on restart
	// before the new listener is up.
	if err := sup.Restart(0); err != nil {
		t.Fatal(err)
	}
	code, _, body = postJSON(t, "http://"+sup.Addr(0)+"/v1/classify", `{"kernel":"k1","npe":2}`)
	if code != http.StatusOK {
		t.Fatalf("classify against restarted shard: %d: %s", code, body)
	}
	// Crash debris in the addr dir goes with it.
	if err := os.WriteFile(filepath.Join(sup.dir, "shard-0.addr.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	sup.Stop()
	if _, err := os.Stat(sup.dir); !os.IsNotExist(err) {
		t.Fatalf("addr dir %s survives Stop: %v", sup.dir, err)
	}
}
