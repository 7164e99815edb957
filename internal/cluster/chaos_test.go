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

	sup, err := StartSupervisor(SupervisorOptions{
		Shards:  3,
		Command: shardCommand(""),
		Dir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	reg := obs.NewRegistry()
	rt, err := NewRouter(RouterOptions{
		Shards:        3,
		AddrOf:        sup.Addr,
		PIDOf:         sup.PID,
		Local:         serve.Options{Metrics: reg, AccessLog: io.Discard},
		BackoffBase:   2 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
		ProbeInterval: 100 * time.Millisecond,
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// SIGKILL the sweep's home shard mid-sweep: the grid names no
	// kernels, so it is placed by the paper set's first. The delay is
	// seed-derived so the three CI seeds kill at different points of
	// the request's life — during captures, during replays, before
	// the body is sent.
	victim := homeShard(t, rt, loops.PaperSet()[0].Key)
	killDelay := time.Duration(5+seed*13%120) * time.Millisecond
	killed := make(chan error, 1)
	go func() {
		time.Sleep(killDelay)
		killed <- sup.Kill(victim)
	}()

	code, _, got := postJSON(t, front.URL+"/v1/sweep", standardGridReq)
	if err := <-killed; err != nil {
		t.Fatalf("killing shard %d: %v", victim, err)
	}
	// Whether the kill landed mid-flight depends on timing, so it is
	// reported, not asserted.
	t.Logf("killed home shard %d after %v: %d failovers", victim, killDelay, reg.Counter(MetricFailovers).Value())
	if code != http.StatusOK {
		t.Fatalf("sweep with shard killed after %v: %d: %s", killDelay, code, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("sweep body after mid-flight SIGKILL differs from single-node baseline (%d vs %d bytes)", len(got), len(want))
	}

	// The router must converge on degraded-but-serving: the prober
	// marks the dead shard down, and classifies keep answering.
	deadline := time.Now().Add(10 * time.Second)
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
	sup, err := StartSupervisor(SupervisorOptions{
		Shards:  1,
		Command: shardCommand(storeDir),
		Dir:     t.TempDir(),
	})
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
// reports a -1 PID, and Restart publishes a new address.
func TestSupervisorAddrFileDiscovery(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level test")
	}
	dir := t.TempDir()
	sup, err := StartSupervisor(SupervisorOptions{Shards: 1, Command: shardCommand(""), Dir: dir})
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
	// Crash debris in the addr dir must not confuse a later spawn.
	if err := os.WriteFile(filepath.Join(dir, "shard-0.addr.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
}
