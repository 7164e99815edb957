package main

// metrics.go — the one table of every metric the benchmark prints.
// BENCHMARK.json and README.md are checked against it (lint_test.go),
// so a metric cannot be printed without being documented in both.

// metric describes one reported number.
type metric struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string  // module the number belongs to
	How    string  // how the benchmark obtains it
	Moves  string  // which end-to-end metric it should move, on which workload
}

// endToEnd is what a user of the system sees; printed with --trace 0.
var endToEnd = []metric{
	{Name: "points_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Layer: "end-to-end",
		How: "classified grid points completed per wall second; median over the 10 slices of the measured window"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "end-to-end",
		How: "median latency of one op (one sweep.RunOpts call, or one HTTP request), successful ops only; median over the slices of each slice's median"},
	{Name: "cpu_us_per_point", Unit: "us", Better: "lower", Bound: 0.25, Layer: "end-to-end",
		How: "user+sys CPU of the program under test / points, median over the slices (own process for grids via getrusage; daemon process tree via /proc for daemon workloads, load generator excluded)"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Layer: "end-to-end",
		How: "high-water RSS of the same process (ru_maxrss) or process tree (sum of VmHWM)"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Layer: "end-to-end",
		How: "process start until the warm-up finishes (compile inputs, start daemon/router until /healthz answers, compile the catalogue, warm-up ops); median of several fresh set-ups per run; output verification excluded"},
}

// perLayer is printed with --trace 1. A value of 0 means the layer is
// not on that workload's path (cluster.* outside cluster_tail, serve.*
// on grid workloads, sweep.* on daemon workloads).
var perLayer = []metric{
	// Rungs timed by calling each layer's exported functions directly
	// on fixed inputs; identical work on every workload.
	{Name: "ir.parse_us", Unit: "us", Better: "lower", Layer: "ir", How: "ir.Parse over the 16 catalogue programs, mean per program", Moves: "setup_s on grid_nscale, serve_tail; op_p99_ms on serve_tail (compile share)"},
	{Name: "ir.kernel_build_us", Unit: "us", Better: "lower", Layer: "ir", How: "Program.Kernel over the parsed catalogue, mean per program", Moves: "same as ir.parse_us"},
	{Name: "kernelreg.compile_miss_us", Unit: "us", Better: "lower", Layer: "kernelreg", How: "Registry.Compile on a fresh registry, mean per catalogue program", Moves: "setup_s on daemon workloads and grid_nscale"},
	{Name: "kernelreg.compile_hit_us", Unit: "us", Better: "lower", Layer: "kernelreg", How: "Registry.Compile of an already registered program, mean", Moves: "op_p50_ms of the 5% compile ops on serve_tail, cluster_tail"},
	{Name: "sim.run_us_per_kevent", Unit: "us", Better: "lower", Layer: "sim", How: "direct sim.Scratch.Run over the reference kernels / (stream events/1000)", Moves: "capture cost everywhere capture runs (capture is a traced sim run)"},
	{Name: "refstream.capture_us_per_kevent.builtin", Unit: "us", Better: "lower", Layer: "refstream", How: "refstream.CaptureScratch over built-in reference kernels / kevents", Moves: "points_per_s, cpu_us_per_point on grid_nscale (large), ~0.3 share on grid_paper, op_p99_ms on serve_tail; nothing on grid_wide, serve_hot"},
	{Name: "refstream.capture_us_per_kevent.ir", Unit: "us", Better: "lower", Layer: "refstream", How: "same over the four registry-compiled nscale kernels (IR tree-walker)", Moves: "same as capture_us_per_kevent.builtin, grid_nscale first"},
	{Name: "refstream.stream_bytes_per_event", Unit: "B", Better: "lower", Layer: "refstream", How: "Stream.EncodedBytes / Stream.Events over the reference kernels", Moves: "peak_rss_mb on daemon workloads (stream cache), store.* sizes"},
	{Name: "refstream.batch_cold_us", Unit: "us", Better: "lower", Layer: "refstream", How: "first RunBatchN of a 28-config group on a fresh stream (memo builds included), mean over reference kernels", Moves: "points_per_s on grid_nscale (every stream is fresh)"},
	{Name: "refstream.batch_warm_us_per_config", Unit: "us", Better: "lower", Layer: "refstream", How: "second RunBatchN on the same stream / configs", Moves: "points_per_s on grid_wide (all of it), grid_paper (most); nothing on grid_nscale, serve_hot"},
	{Name: "refstream.memo_build_us", Unit: "us", Better: "lower", Layer: "refstream", How: "batch_cold_us - warm pass time (stream memo builds)", Moves: "points_per_s, cpu_us_per_point on grid_nscale; op_p99_ms on serve_tail"},
	{Name: "refstream.replay1_us", Unit: "us", Better: "lower", Layer: "refstream", How: "Replayer.Run of one config on a warm stream, mean (the classify-miss path)", Moves: "op_p50_ms on serve_tail, cluster_tail"},
	{Name: "refstream.batch_us_per_config.orderfree_pow2", Unit: "us", Better: "lower", Layer: "refstream", How: "warm RunBatchN over a homogeneous config set: no cache, modulo, NPE power of two <= 64", Moves: "points_per_s on grid_wide, grid_paper"},
	{Name: "refstream.batch_us_per_config.orderfree_other", Unit: "us", Better: "lower", Layer: "refstream", How: "same: no cache, block layout or NPE not a power of two", Moves: "points_per_s on grid_wide"},
	{Name: "refstream.batch_us_per_config.lru_small_pow2", Unit: "us", Better: "lower", Layer: "refstream", How: "same: LRU, modulo, <= 8 frames, NPE power of two", Moves: "points_per_s on grid_wide, grid_paper"},
	{Name: "refstream.batch_us_per_config.lru_other", Unit: "us", Better: "lower", Layer: "refstream", How: "same: LRU, 9..64 frames or other layout/NPE", Moves: "points_per_s on grid_wide"},
	{Name: "refstream.batch_us_per_config.policy_other", Unit: "us", Better: "lower", Layer: "refstream", How: "same: FIFO/Clock/Random caches", Moves: "points_per_s on grid_wide"},
	{Name: "refstream.marshal_us", Unit: "us", Better: "lower", Layer: "refstream", How: "Stream.MarshalBinary, mean over reference kernels", Moves: "op_p99_ms on cluster_tail (cold captures are persisted)"},
	{Name: "refstream.unmarshal_us", Unit: "us", Better: "lower", Layer: "refstream", How: "refstream.UnmarshalStream, mean", Moves: "store.cold_start_ms.warm_dir"},
	{Name: "store.save_us", Unit: "us", Better: "lower", Layer: "store", How: "Store.Save of a fresh capture (write, fsync, rename), mean", Moves: "op_p99_ms on cluster_tail"},
	{Name: "store.load_us", Unit: "us", Better: "lower", Layer: "store", How: "Store.Load from a reopened store, mean", Moves: "store.cold_start_ms.warm_dir"},
	{Name: "store.cold_start_ms.empty_dir", Unit: "ms", Better: "lower", Layer: "store", How: "spawn lfksimd -capture-dir on an empty dir until the first k6 classify is answered", Moves: "setup_s on cluster_tail"},
	{Name: "store.cold_start_ms.warm_dir", Unit: "ms", Better: "lower", Layer: "store", How: "same on the now populated dir (disk hit instead of capture)", Moves: "setup_s on cluster_tail"},
	{Name: "serve.handler_hit_us", Unit: "us", Better: "lower", Layer: "serve", How: "Server.Handler().ServeHTTP on a recorder, result-cache hit, mean (no socket)", Moves: "cpu_us_per_point on serve_hot slightly; op_p50_ms there not at all (transport is ~0.9 of client latency)"},
	{Name: "serve.handler_miss_us", Unit: "us", Better: "lower", Layer: "serve", How: "same, result-cache miss on a warm stream", Moves: "op_p50_ms on serve_tail, cluster_tail"},
	{Name: "serve.handler_cold_us", Unit: "us", Better: "lower", Layer: "serve", How: "same, never-seen problem size (cold capture)", Moves: "op_p99_ms on serve_tail, cluster_tail"},

	// Taken from the workload's own traced pass.
	{Name: "sweep.run_us.w1", Unit: "us", Better: "lower", Layer: "sweep", How: "span around sweep.RunOpts at 1 worker over the workload's grid, median", Moves: "cpu_us_per_point on grid workloads"},
	{Name: "sweep.run_us.w2", Unit: "us", Better: "lower", Layer: "sweep", How: "same at 2 workers", Moves: "points_per_s, op_p50_ms on grid workloads"},
	{Name: "sweep.capture_us", Unit: "us", Better: "lower", Layer: "sweep", How: "sum of refstream.CaptureScratch spans over the grid's groups, walked by hand on one goroutine, median", Moves: "see refstream.capture_us_per_kevent.*"},
	{Name: "sweep.batch_cold_us", Unit: "us", Better: "lower", Layer: "sweep", How: "sum of first-RunBatchN spans over the grid's groups, by hand, median", Moves: "see refstream.batch_*"},
	{Name: "sweep.capture_share", Unit: "ratio", Better: "lower", Layer: "sweep", How: "sweep.capture_us / (sweep.capture_us + sweep.batch_cold_us): capture's share of serial work", Moves: "design check: >= 0.6 on grid_nscale, <= 0.02 on grid_wide"},
	{Name: "sweep.planner_self_us", Unit: "us", Better: "lower", Layer: "sweep", How: "run_us.w1 - capture_us - batch_cold_us taken round by round (the three are measured within a second of each other), median", Moves: "points_per_s on grid_paper (11 small groups expose planner overhead that grid_wide's 4 large groups amortise)"},
	{Name: "sweep.parallel_efficiency", Unit: "ratio", Better: "higher", Layer: "sweep", How: "run_us.w1 / (2 * run_us.w2)", Moves: "points_per_s on grid workloads"},
	{Name: "sweep.stream_captures", Unit: "count", Better: "lower", Layer: "sweep", How: "sweep.stream_captures counter per op (obs registry passed to RunOpts)", Moves: "counter; repeats exactly"},
	{Name: "sweep.replay_points", Unit: "count", Better: "higher", Layer: "sweep", How: "sweep.replay_points per op", Moves: "counter; repeats exactly"},
	{Name: "sweep.direct_points", Unit: "count", Better: "lower", Layer: "sweep", How: "sweep.direct_points per op", Moves: "counter; repeats exactly"},
	{Name: "sweep.capture_overlap", Unit: "count", Better: "higher", Layer: "sweep", How: "sweep.capture_overlap per op at 2 workers", Moves: "sweep.parallel_efficiency"},
	{Name: "sim.runs", Unit: "count", Better: "lower", Layer: "sim", How: "sim.runs counter per op (grids) or over the window (daemons, from /metrics)", Moves: "counter"},
	{Name: "refstream.batch.groups", Unit: "count", Better: "lower", Layer: "refstream", How: "refstream.batch.groups per op (grids) or over the window (daemons)", Moves: "counter"},
	{Name: "refstream.batch.decode_passes", Unit: "count", Better: "lower", Layer: "refstream", How: "refstream.batch.decode_passes, same scope", Moves: "counter"},
	{Name: "refstream.batch.partitions_mean", Unit: "count", Better: "higher", Layer: "refstream", How: "mean of the refstream.batch.partitions histogram", Moves: "sweep.parallel_efficiency on grid_wide"},
	{Name: "serve.transport_share", Unit: "ratio", Better: "lower", Layer: "serve", How: "1 - sum of server-observed serve.*_latency_us / sum of client-observed latency over the traced window", Moves: "op_p50_ms on serve_hot (transport, not the handler, is what the client waits for)"},
	{Name: "serve.stage.decode_us", Unit: "us", Better: "lower", Layer: "serve", How: "mean of the serve.stage.decode_us histogram delta between two GET /metrics", Moves: "cpu_us_per_point on serve_hot"},
	{Name: "serve.stage.admit_wait_us", Unit: "us", Better: "lower", Layer: "serve", How: "same for admit_wait", Moves: "op_p99_ms on daemon workloads under overload (none at 2 clients)"},
	{Name: "serve.stage.cache_lookup_us", Unit: "us", Better: "lower", Layer: "serve", How: "same for cache_lookup", Moves: "cpu_us_per_point on serve_hot"},
	{Name: "serve.stage.flight_wait_us", Unit: "us", Better: "lower", Layer: "serve", How: "same for flight_wait (contains queue wait, capture, replay, encode)", Moves: "op_p50_ms on serve_tail"},
	{Name: "serve.stage.capture_us", Unit: "us", Better: "lower", Layer: "serve", How: "same for capture", Moves: "op_p99_ms on serve_tail, cluster_tail"},
	{Name: "serve.stage.replay_us", Unit: "us", Better: "lower", Layer: "serve", How: "same for replay", Moves: "op_p50_ms on serve_tail, cluster_tail"},
	{Name: "serve.stage.encode_us", Unit: "us", Better: "lower", Layer: "serve", How: "same for encode", Moves: "op_p50_ms on serve_tail, cluster_tail"},
	{Name: "serve.stage.compile_us", Unit: "us", Better: "lower", Layer: "serve", How: "same for compile", Moves: "latency of the 5% compile ops on serve_tail, cluster_tail"},
	{Name: "serve.stage_share.execute", Unit: "ratio", Better: "lower", Layer: "serve", How: "(capture+replay+encode stage time) / server-observed request time", Moves: "design check: high on serve_tail, ~0 on serve_hot"},
	{Name: "serve.stage_share.unstaged", Unit: "ratio", Better: "lower", Layer: "serve", How: "1 - (decode+admit_wait+cache_lookup+flight_wait+compile stage time) / server-observed request time: response write, bookkeeping, and the 1 us resolution of the stage histograms", Moves: "large only where requests take ~10 us (serve_hot)"},
	{Name: "serve.response_bytes_per_point", Unit: "B", Better: "lower", Layer: "serve", How: "response body bytes / points over the traced window", Moves: "serve.stage.encode_us, serve.transport_share"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "serve", How: "serve.cache_hits / (hits+misses) delta; classify and sweep points", Moves: "design check: >= 0.94 on serve_hot, <= 0.05 on serve_tail"},
	{Name: "serve.stream_hit_ratio", Unit: "ratio", Better: "higher", Layer: "serve", How: "serve.stream_hits / (stream_hits+stream_captures) delta", Moves: "op_p99_ms on serve_tail (a stream miss is a cold capture)"},
	{Name: "serve.dedup_waits", Unit: "count", Better: "lower", Layer: "serve", How: "serve.dedup_waits delta", Moves: "counter"},
	{Name: "serve.points_executed", Unit: "count", Better: "lower", Layer: "serve", How: "serve.points_executed delta", Moves: "counter; design check: >= 0.8 per classify request on serve_tail"},
	{Name: "serve.rejected", Unit: "count", Better: "lower", Layer: "serve", How: "serve.rejected delta (429s)", Moves: "failed ops"},
	{Name: "kernelreg.compiles", Unit: "count", Better: "lower", Layer: "kernelreg", How: "kernelreg.compiles delta from /metrics (local registry on grid_nscale)", Moves: "counter"},
	{Name: "kernelreg.compile_hits", Unit: "count", Better: "higher", Layer: "kernelreg", How: "kernelreg.compile_hits delta", Moves: "counter"},
	{Name: "kernelreg.quota_rejects", Unit: "count", Better: "lower", Layer: "kernelreg", How: "kernelreg.quota_rejects delta; the schedule is built so this stays 0", Moves: "failed ops"},
	{Name: "kernelreg.evictions", Unit: "count", Better: "lower", Layer: "kernelreg", How: "kernelreg.evictions delta", Moves: "counter"},
	{Name: "store.hits", Unit: "count", Better: "higher", Layer: "store", How: "store.hits delta summed over shards (cluster_tail only: the one workload with a capture dir)", Moves: "counter"},
	{Name: "store.misses", Unit: "count", Better: "lower", Layer: "store", How: "store.misses delta", Moves: "counter"},
	{Name: "store.puts", Unit: "count", Better: "lower", Layer: "store", How: "store.puts delta", Moves: "op_p99_ms on cluster_tail (each put is an fsync)"},
	{Name: "cluster.router_hop_us", Unit: "us", Better: "lower", Layer: "cluster", How: "median latency of a cached classify through the router minus the same request sent straight to a shard", Moves: "op_p50_ms on cluster_tail only"},
	{Name: "cluster.forward_us_p50", Unit: "us", Better: "lower", Layer: "cluster", How: "median of the cluster.forward_us histogram delta", Moves: "op_p50_ms on cluster_tail"},
	{Name: "cluster.forwards", Unit: "count", Better: "lower", Layer: "cluster", How: "cluster.forwards delta", Moves: "counter"},
	{Name: "cluster.forward_failures", Unit: "count", Better: "lower", Layer: "cluster", How: "cluster.forward_failures delta", Moves: "failed ops"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower", Layer: "cluster", How: "cluster.failovers delta", Moves: "op_p99_ms on cluster_tail"},
	{Name: "cluster.local_fallbacks", Unit: "count", Better: "lower", Layer: "cluster", How: "cluster.local_fallbacks delta", Moves: "op_p99_ms on cluster_tail"},
	{Name: "runtime.allocs_per_point", Unit: "count", Better: "lower", Layer: "runtime", How: "heap objects allocated over the traced window / points (runtime.MemStats in-process for grids, /debug/vars of every engine process for daemons)", Moves: "runtime.gc_cpu_fraction"},
	{Name: "runtime.alloc_bytes_per_point", Unit: "B", Better: "lower", Layer: "runtime", How: "bytes allocated / points, same sources", Moves: "gc_cpu_fraction, then points_per_s on grid_nscale and op_p99_ms on daemon workloads"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Layer: "runtime", How: "NumGC delta", Moves: "op_p99_ms on daemon workloads"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower", Layer: "runtime", How: "PauseTotalNs delta", Moves: "op_p99_ms on daemon workloads"},
	{Name: "runtime.gc_cpu_fraction", Unit: "ratio", Better: "lower", Layer: "runtime", How: "GC CPU seconds / total CPU seconds over the window (runtime/metrics) for grids; MemStats.GCCPUFraction (since process start) averaged over engine processes for daemons", Moves: "points_per_s on grid_nscale"},
	{Name: "loadgen.op_p90_ms", Unit: "ms", Better: "lower", Layer: "loadgen", How: "90th percentile op latency over the untraced slices of the traced run", Moves: "tail figure for grid workloads, whose op count is too small for a p99"},
	{Name: "loadgen.op_p99_ms", Unit: "ms", Better: "lower", Layer: "loadgen", How: "99th percentile op latency over the untraced slices of the traced run; meaningful where ops >= 1000 (daemon workloads)", Moves: "demoted end-to-end metric, see README"},
	{Name: "loadgen.verify_s", Unit: "s", Better: "lower", Layer: "loadgen", How: "time spent checking outputs against the golden digest", Moves: "none (excluded from setup_s)"},
	{Name: "loadgen.trace_overhead_pct", Unit: "%", Better: "lower", Layer: "loadgen", How: "100 * (traced op_p50 / untraced op_p50 - 1) over alternating traced and untraced slices of one run", Moves: "none; says how far per-layer numbers can be trusted"},
	{Name: "loadgen.unattributed_share", Unit: "ratio", Better: "lower", Layer: "loadgen", How: "share of the end-to-end time no rung explains. grids: |median over rounds of (run_us.w1 - capture_us - batch_cold_us) / run_us.w1|; daemons: (server-observed request time - top-level stage time) / client-observed time, transport being a rung of its own; the run fails above 0.15", Moves: "none; a missing rung shows here"},
}
