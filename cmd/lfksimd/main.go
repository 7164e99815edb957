// Command lfksimd is the classification daemon: the paper's
// partitioning/classification machinery served over HTTP by
// internal/serve, so consumers reach the sweep/replay engines through
// a long-lived service instead of shelling out to lfksim.
//
// Usage:
//
//	lfksimd                          serve on :8077
//	lfksimd -addr :9000              serve elsewhere
//	lfksimd -workers 8 -queue 32     cap the pool and admission queue
//	lfksimd -capture-dir /var/lib/lfksimd
//	                                 persist reference streams to disk
//	                                 and warm-start from them on boot
//	lfksimd -addr-file /run/lfksimd.addr
//	                                 publish the bound address (useful
//	                                 with -addr 127.0.0.1:0)
//	lfksimd -router 3                front a 3-shard cluster: spawn 3
//	                                 shard processes and route/fail-over
//	                                 between them (docs/CLUSTER.md)
//
// Endpoints: POST /v1/classify, POST /v1/sweep, POST /v1/compile
// (docs/COMPILE.md), GET /v1/kernels (?compiled=1 for the registry),
// GET /healthz, GET /metrics, GET /debug/pprof/. See docs/SERVING.md.
//
// The daemon shuts down cleanly on SIGINT/SIGTERM: the listener stops,
// in-flight requests drain (bounded by -drain), and the engine's
// worker pool exits before the process does.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/kernelreg"
	"repro/internal/obs"
	"repro/internal/refstream/store"
	"repro/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8077", "listen address")
		workers = flag.Int("workers", 0, "execution pool size (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 0, "max admitted in-flight requests before 429 (0 = 4x workers)")
		results = flag.Int("result-cache", 0, "result-cache capacity in points, answered or executing (0 = 4096)")
		streams = flag.Int("stream-cache", 0, "reference-stream cache capacity (0 = 64)")
		maxPts  = flag.Int("max-sweep-points", 0, "largest sweep grid a request may expand to (0 = 4096)")
		dline   = flag.Duration("deadline", 0, "default per-request deadline (0 = derive from the request's NPE and problem size)")
		drain   = flag.Duration("drain", 15*time.Second, "shutdown drain budget for in-flight requests")

		captureDir = flag.String("capture-dir", "", "disk-backed capture store directory (empty = in-memory only)")
		addrFile   = flag.String("addr-file", "", "publish the bound listen address to this file (temp + rename)")
		router     = flag.Int("router", 0, "front a sharded cluster: spawn this many shard processes and route between them (0 = single-node)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}

	opts := serve.Options{
		Workers:            *workers,
		MaxInflight:        *queue,
		ResultCacheEntries: *results,
		StreamCacheEntries: *streams,
		MaxSweepPoints:     *maxPts,
		DefaultDeadline:    *dline,
	}

	var err error
	switch {
	case *router > 0:
		err = runRouter(opts, *addr, *drain, *router, *captureDir, *addrFile)
	default:
		err = runDaemon(opts, *addr, *drain, *captureDir, *addrFile)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lfksimd:", err)
	os.Exit(1)
}

// publishAddr writes the bound address to path via temp + rename, so a
// reader never observes a partial write (the same contract the cluster
// supervisor relies on for shard discovery).
func publishAddr(path string, addr net.Addr) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr.String()+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// openStore attaches a disk-backed capture store when dir is set.
func openStore(opts *serve.Options, dir string, reg *obs.Registry) error {
	if dir == "" {
		return nil
	}
	st, err := store.Open(dir, reg)
	if err != nil {
		return fmt.Errorf("opening capture store: %w", err)
	}
	opts.CaptureStore = st
	fmt.Fprintf(os.Stderr, "lfksimd: capture store %s (%d capture files)\n", st.Dir(), st.Len())
	return nil
}

// runDaemon serves until SIGINT/SIGTERM, then drains: listener closed,
// in-flight HTTP requests completed (bounded by drain), engine worker
// pool exited.
func runDaemon(opts serve.Options, addr string, drain time.Duration, captureDir, addrFile string) error {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	opts.Metrics = reg
	opts.Registry = kernelreg.New(kernelreg.Limits{}, reg)
	if err := openStore(&opts, captureDir, reg); err != nil {
		return err
	}
	srv := serve.New(opts)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", addr, err)
	}
	if addrFile != "" {
		if err := publishAddr(addrFile, ln.Addr()); err != nil {
			return fmt.Errorf("publishing address: %w", err)
		}
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "lfksimd: serving http://%s (POST /v1/classify /v1/sweep /v1/compile; GET /v1/kernels /healthz /metrics /debug/trace /debug/pprof/)\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serving: %w", err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "lfksimd: shutting down, draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		srv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	srv.Close()
	fmt.Fprintln(os.Stderr, "lfksimd: clean shutdown")
	return nil
}

// shardArgs is one shard's command line: an ephemeral listener
// published through addrFile, the router's capture dir, and every
// serving flag the router was given. The shard that answers a routed
// request applies the router's limits, deadline and pool and cache
// sizes, exactly as the embedded fallback does; a flag left at its
// zero default stays off the command line.
func shardArgs(opts serve.Options, addrFile, captureDir string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}
	if captureDir != "" {
		// All shards share one store directory: a capture's file is
		// named by its (kernel, N), writes are temp+rename, and every
		// load reads the directory afresh, so sharing is safe and a
		// peer's capture serves the next load.
		args = append(args, "-capture-dir", captureDir)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"workers", opts.Workers},
		{"queue", opts.MaxInflight},
		{"result-cache", opts.ResultCacheEntries},
		{"stream-cache", opts.StreamCacheEntries},
		{"max-sweep-points", opts.MaxSweepPoints},
	} {
		if f.v != 0 {
			args = append(args, fmt.Sprintf("-%s=%d", f.name, f.v))
		}
	}
	if opts.DefaultDeadline != 0 {
		args = append(args, "-deadline="+opts.DefaultDeadline.String())
	}
	return args
}

// runRouter fronts a sharded cluster: spawns shards re-execed lfksimd
// processes (each a plain single-node daemon publishing its ephemeral
// address through an addr file), routes classify/sweep traffic across
// them with failover, and degrades to local execution when every shard
// is down. See docs/CLUSTER.md.
func runRouter(opts serve.Options, addr string, drain time.Duration, shards int, captureDir, addrFile string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	sup, err := cluster.StartSupervisor(cluster.SupervisorOptions{
		Shards: shards,
		Command: func(id int, shardAddrFile string) *exec.Cmd {
			cmd := exec.Command(exe, shardArgs(opts, shardAddrFile, captureDir)...)
			cmd.Stderr = os.Stderr
			return cmd
		},
	})
	if err != nil {
		return fmt.Errorf("starting shards: %w", err)
	}
	defer sup.Stop()

	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	local := opts
	local.Metrics = reg
	local.Registry = kernelreg.New(kernelreg.Limits{}, reg)
	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Shards: shards,
		AddrOf: sup.Addr,
		PIDOf:  sup.PID,
		Local:  local,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", addr, err)
	}
	if addrFile != "" {
		if err := publishAddr(addrFile, ln.Addr()); err != nil {
			return fmt.Errorf("publishing address: %w", err)
		}
	}
	hs := &http.Server{Handler: rt.Handler()}
	fmt.Fprintf(os.Stderr, "lfksimd: routing http://%s across %d shards\n", ln.Addr(), shards)
	for sh := 0; sh < sup.Shards(); sh++ {
		fmt.Fprintf(os.Stderr, "lfksimd:   shard %d at %s (pid %d)\n", sh, sup.Addr(sh), sup.PID(sh))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serving: %w", err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "lfksimd: shutting down router and shards")
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}
