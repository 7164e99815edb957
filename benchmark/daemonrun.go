package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/kernelreg"
	"repro/internal/obs"
	"repro/internal/refstream"
	"repro/internal/refstream/store"
	"repro/internal/serve"
	"repro/internal/sim"
)

// daemonrun.go — one run of a daemon workload: set-up (several times,
// each a fresh process on fresh directories), output check, measured
// window, teardown.

// setupSamples is how many fresh set-ups an untraced run times; the
// median is reported as setup_s.
const setupSamples = 7

// rig is a started and warmed daemon.
type rig struct {
	d      *daemon
	dir    string
	hotRef [][]byte
	setupS float64
}

// setUp starts the workload's daemon in a fresh directory under work
// and warms it: compile the catalogue, capture every warm group, and
// for serve_hot answer every hot-set point once.
func setUp(env *environment, w workload, seed int64, n int) (*rig, error) {
	dir := filepath.Join(env.work, fmt.Sprintf("%s-%d", w.Name, n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	captureDir := ""
	if w.Router > 0 {
		captureDir = filepath.Join(dir, "captures")
	}
	d, err := startDaemon(env.lfksimd, dir, w.Router, captureDir)
	if err != nil {
		return nil, err
	}
	r := &rig{d: d, dir: dir}
	if err := r.warm(w, seed); err != nil {
		r.tearDown()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.setupS = time.Since(d.spawn).Seconds()
	return r, nil
}

func (r *rig) warm(w workload, seed int64) error {
	c, err := dial(r.d.addr)
	if err != nil {
		return err
	}
	defer c.close()
	post := func(path string, body []byte) ([]byte, error) {
		status, reply, err := c.post(path, body)
		if err != nil {
			return nil, err
		}
		if status != 200 {
			return nil, fmt.Errorf("POST %s: status %d: %.200s", path, status, reply)
		}
		return reply, nil
	}
	for _, p := range catalogue() {
		body, err := json.Marshal(p.request(tenants[0]))
		if err != nil {
			return err
		}
		if _, err := post("/v1/compile", body); err != nil {
			return err
		}
	}
	for _, g := range warmGroups() {
		if _, err := post("/v1/classify", classifyBody(g, config{NPE: 8, PageSize: 32, CacheElems: 256, Policy: "lru", Layout: "modulo"})); err != nil {
			return err
		}
	}
	if w.Name == "serve_hot" {
		for _, body := range hotSet(seed) {
			reply, err := post("/v1/classify", body)
			if err != nil {
				return err
			}
			r.hotRef = append(r.hotRef, append([]byte(nil), reply...))
		}
	}
	return nil
}

func (r *rig) tearDown() {
	r.d.stop()
	_ = os.RemoveAll(r.dir)
}

// verify sends the probe list and compares the digest of the replies
// with the workload's golden digest.
func (r *rig) verify(env *environment, w workload) (bool, string, error) {
	reg, err := localCatalogue()
	if err != nil {
		return false, "", err
	}
	probes, err := daemonProbes(reg)
	if err != nil {
		return false, "", err
	}
	want, err := readGolden(env.benchDir, w.Name)
	if err != nil {
		return false, "", err
	}
	c, err := dial(r.d.addr)
	if err != nil {
		return false, "", err
	}
	defer c.close()
	dg := newDigest()
	for i, p := range probes {
		status, body, err := c.post(p.Req.Path, p.Req.Body)
		if why := checkReply(&p.Req, status, body, err, nil); why != "" {
			return false, fmt.Sprintf("probe %d: %s", i, why), nil
		}
		if p.Req.Kind == opSweep {
			var sr serve.SweepResult
			if err := json.Unmarshal(body, &sr); err != nil || len(sr.Points) != len(p.Pts) {
				return false, fmt.Sprintf("probe %d: bad sweep reply", i), nil
			}
			for _, pb := range sr.Points {
				if err := dg.addBody(pb); err != nil {
					return false, fmt.Sprintf("probe %d: %v", i, err), nil
				}
			}
			continue
		}
		if err := dg.addBody(body); err != nil {
			return false, fmt.Sprintf("probe %d: %v", i, err), nil
		}
	}
	if got := dg.sum(); got != want {
		return false, fmt.Sprintf("digest %s, golden %s", got, want), nil
	}
	return true, "", nil
}

// runDaemonWorkload is one driver run of a daemon workload.
func runDaemonWorkload(env *environment, w workload, seed int64, seconds float64, traced bool) (*result, error) {
	sched, err := schedule(w.Name, seed, int(float64(w.Rate)*seconds))
	if err != nil {
		return nil, err
	}
	samples := setupSamples
	if traced {
		samples = 1
	}
	var setups []float64
	var r *rig
	for i := 0; i < samples; i++ {
		if r != nil {
			r.tearDown()
		}
		if r, err = setUp(env, w, seed, i); err != nil {
			return nil, err
		}
		setups = append(setups, r.setupS)
	}
	defer r.tearDown()

	t0 := time.Now()
	correct, why, err := r.verify(env, w)
	if err != nil {
		return nil, err
	}
	verifyS := time.Since(t0).Seconds()
	if !correct {
		env.logf("%s: OUTPUT CHECK FAILED: %s", w.Name, why)
	}

	res := &result{Correct: correct, Metrics: map[string]value{}}
	var next atomic.Int64
	if !traced {
		pids, err := r.d.pids()
		if err != nil {
			return nil, err
		}
		var slices []slice
		win := &window{}
		cpu0, err := cpuSeconds(pids)
		if err != nil {
			return nil, err
		}
		for i := 0; i < windowSlices; i++ {
			sl, err := runLoad(r.d.addr, sched, &next, secondsDur(seconds/windowSlices), r.hotRef, nil)
			if err != nil {
				return nil, err
			}
			if sl.Ops == 0 {
				break // the schedule ran out: the program outpaced the workload's rate cap
			}
			cpu1, err := cpuSeconds(pids)
			if err != nil {
				return nil, err
			}
			slices = append(slices, slice{
				PointsPerS:    float64(sl.Points) / sl.WallS,
				P50MS:         quantile(sl.LatMS, 0.5),
				CPUUSPerPoint: (cpu1 - cpu0) * 1e6 / float64(max(sl.Points, 1)),
			})
			cpu0 = cpu1
			win.add(sl)
		}
		rss, err := peakRSSMB(pids)
		if err != nil {
			return nil, err
		}
		res.fill(win)
		if win.FirstFail != "" {
			env.logf("%s: first failed op: %s", w.Name, win.FirstFail)
		}
		env.logf("%s: %d ops (%v) in %.2fs, %d failed, %d points; p90 %.3f ms, p99 %.3f ms; setup samples %.3v s; verify %.2fs",
			w.Name, win.Ops, win.ByKind, win.WallS, win.Failed, win.Points, quantile(win.LatMS, 0.9), quantile(win.LatMS, 0.99), setups, verifyS)
		res.setTimings(slices)
		res.set("peak_rss_mb", rss)
		res.set("setup_s", median(setups))
		return res, nil
	}
	return res, tracedDaemon(env, w, r, sched, &next, seconds, verifyS, res)
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// snapAll snapshots every given process.
func snapAll(bases []string) ([]*snapshot, error) {
	out := make([]*snapshot, len(bases))
	for i, b := range bases {
		s, err := snap(b)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// delta sums, over processes, after-before of what the per-layer
// metrics need.
type delta struct {
	counters map[string]int64
	histSum  map[string]int64
	histN    map[string]int64
	hist     map[string]obs.HistSnapshot // bucket-wise delta, for quantiles
	mallocs  uint64
	bytes    uint64
	gcs      uint32
	pauseNS  uint64
	gcFrac   float64
}

func deltas(before, after []*snapshot) *delta {
	d := &delta{counters: map[string]int64{}, histSum: map[string]int64{}, histN: map[string]int64{}, hist: map[string]obs.HistSnapshot{}}
	for i := range after {
		a, b := after[i], before[i]
		for name, v := range a.Counters {
			d.counters[name] += v - b.Counters[name]
		}
		for name, h := range a.Histograms {
			hb := b.Histograms[name]
			d.histSum[name] += h.Sum - hb.Sum
			d.histN[name] += h.Count - hb.Count
			acc := d.hist[name]
			if acc.Counts == nil {
				acc = obs.HistSnapshot{Bounds: h.Bounds, Counts: make([]int64, len(h.Counts)), Min: math.MaxInt64}
			}
			for j := range h.Counts {
				c := h.Counts[j]
				if j < len(hb.Counts) {
					c -= hb.Counts[j]
				}
				acc.Counts[j] += c
				acc.Count += c
			}
			acc.Min, acc.Max = min(acc.Min, h.Min), max(acc.Max, h.Max)
			d.hist[name] = acc
		}
		d.mallocs += a.Mem.Mallocs - b.Mem.Mallocs
		d.bytes += a.Mem.TotalAlloc - b.Mem.TotalAlloc
		d.gcs += a.Mem.NumGC - b.Mem.NumGC
		d.pauseNS += a.Mem.PauseTotalNs - b.Mem.PauseTotalNs
		d.gcFrac += a.Mem.GCCPUFraction / float64(len(after))
	}
	return d
}

// mean is a histogram's mean over the window, 0 if it saw nothing.
func (d *delta) mean(name string) float64 {
	if d.histN[name] == 0 {
		return 0
	}
	return float64(d.histSum[name]) / float64(d.histN[name])
}

func ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// tracedSlices is how many alternating untraced/traced slices a traced
// pass runs.
const tracedSlices = 8

// tracedDaemon is the --trace 1 pass of a daemon workload: between two
// snapshots of every engine process, slices of load alternately without
// and with a benchmark-side span around every client request.
func tracedDaemon(env *environment, w workload, r *rig, sched []request, next *atomic.Int64, seconds, verifyS float64, res *result) error {
	engines, err := r.d.engines()
	if err != nil {
		return err
	}
	bases := engines
	if w.Router > 0 {
		bases = append([]string{r.d.base}, engines...)
	}
	before, err := snapAll(bases)
	if err != nil {
		return err
	}
	// Untraced and traced slices alternate, so a shift in the host's
	// speed lands on both sides of the overhead figure.
	tr := newTracer()
	plain, traced := &window{}, &window{}
	for i := 0; i < tracedSlices; i++ {
		side, t := plain, (*tracer)(nil)
		if i%2 == 1 {
			side, t = traced, tr
		}
		sl, err := runLoad(r.d.addr, sched, next, secondsDur(seconds*3/4/tracedSlices), r.hotRef, t)
		if err != nil {
			return err
		}
		side.add(sl)
	}
	after, err := snapAll(bases)
	if err != nil {
		return err
	}
	if err := tr.write(filepath.Join(env.outDir, "trace-"+w.Name+".json")); err != nil {
		return err
	}
	d := deltas(before, after)
	// The snapshots bracket both sides, so the client's view does too.
	win := &window{}
	win.add(plain)
	win.add(traced)
	res.fill(win)

	stage := func(name string) float64 { return float64(d.histSum["serve.stage."+name+"_us"]) }
	for _, s := range []string{"decode", "admit_wait", "cache_lookup", "flight_wait", "capture", "replay", "encode", "compile"} {
		res.set("serve.stage."+s+"_us", d.mean("serve.stage."+s+"_us"))
	}
	serverUS := float64(d.histSum[serve.MetricClassifyLatencyUS] + d.histSum[serve.MetricSweepLatencyUS] + d.histSum[serve.MetricCompileLatencyUS])
	topUS := stage("decode") + stage("admit_wait") + stage("cache_lookup") + stage("flight_wait") + stage("compile")
	if serverUS > 0 {
		res.set("serve.stage_share.execute", (stage("capture")+stage("replay")+stage("encode"))/serverUS)
		res.set("serve.stage_share.unstaged", 1-topUS/serverUS)
	}
	// The end-to-end number is what the client waits for, so that is what
	// the rungs must add up to: transport (client minus server-observed)
	// plus the top-level stages. What is left is server time no stage
	// histogram covers.
	unattributed := (serverUS - topUS) / win.ClientUS
	res.set("loadgen.unattributed_share", unattributed)
	res.set("serve.transport_share", 1-serverUS/win.ClientUS)
	res.set("serve.response_bytes_per_point", float64(win.Bytes)/float64(max(win.Points, 1)))
	res.set("serve.cache_hit_ratio", ratio(d.counters[serve.MetricCacheHits], d.counters[serve.MetricCacheMisses]))
	res.set("serve.stream_hit_ratio", ratio(d.counters[serve.MetricStreamHits], d.counters[serve.MetricStreamCaptures]))
	for _, c := range []string{
		serve.MetricDedupWaits, serve.MetricPointsExecuted, serve.MetricRejected,
		kernelreg.MetricCompiles, kernelreg.MetricCompileHits, kernelreg.MetricQuotaRejects, kernelreg.MetricEvictions,
		store.MetricHits, store.MetricMisses, store.MetricPuts,
		cluster.MetricForwards, cluster.MetricForwardFailures, cluster.MetricFailovers, cluster.MetricLocalFallbacks,
		sim.MetricRuns, refstream.MetricBatchGroups, refstream.MetricBatchDecodePasses,
	} {
		res.set(c, float64(d.counters[c]))
	}
	res.set("refstream.batch.partitions_mean", d.mean(refstream.MetricBatchPartitions))
	res.set("cluster.forward_us_p50", d.hist[cluster.MetricForwardUS].Quantile(0.5))
	pts := float64(max(win.Points, 1))
	res.set("runtime.allocs_per_point", float64(d.mallocs)/pts)
	res.set("runtime.alloc_bytes_per_point", float64(d.bytes)/pts)
	res.set("runtime.gc_cycles", float64(d.gcs))
	res.set("runtime.gc_pause_total_ms", float64(d.pauseNS)/1e6)
	res.set("runtime.gc_cpu_fraction", d.gcFrac)
	res.set("loadgen.op_p90_ms", quantile(plain.LatMS, 0.90))
	res.set("loadgen.op_p99_ms", quantile(plain.LatMS, 0.99))
	res.set("loadgen.verify_s", verifyS)
	res.set("loadgen.trace_overhead_pct", 100*(quantile(traced.LatMS, 0.5)/quantile(plain.LatMS, 0.5)-1))
	if w.Router > 0 {
		hop, err := routerHop(r, engines[0])
		if err != nil {
			return err
		}
		res.set("cluster.router_hop_us", hop)
	}
	env.logf("%s traced: %d ops (%v), %d failed; stages %.0f us of server-observed %.0f us of client-observed %.0f us; %.3f points executed per point served",
		w.Name, win.Ops, win.ByKind, win.Failed, topUS, serverUS, win.ClientUS, float64(d.counters[serve.MetricPointsExecuted])/pts)
	if unattributed > maxUnattributed {
		res.Correct = false
		env.logf("%s: ladder does not reconcile: unattributed %.3f > %.2f", w.Name, unattributed, maxUnattributed)
	}
	return nil
}

// maxUnattributed is the largest share of an end-to-end time the rungs
// may leave unexplained before the traced run fails.
const maxUnattributed = 0.15

// routerHop times one cached classify through the router and straight
// at a shard, alternately, and returns the difference of the medians in
// microseconds.
func routerHop(r *rig, shardBase string) (float64, error) {
	body := classifyBody(warmGroups()[0], config{NPE: 8, PageSize: 32, CacheElems: 256, Policy: "lru", Layout: "modulo"})
	via, err := dial(r.d.addr)
	if err != nil {
		return 0, err
	}
	defer via.close()
	direct, err := dial(shardBase[len("http://"):])
	if err != nil {
		return 0, err
	}
	defer direct.close()
	var viaUS, directUS []float64
	for i := 0; i < 400; i++ {
		for _, leg := range []struct {
			c   *conn
			out *[]float64
		}{{via, &viaUS}, {direct, &directUS}} {
			t0 := time.Now()
			status, reply, err := leg.c.post("/v1/classify", body)
			if err != nil || status != 200 {
				return 0, fmt.Errorf("router-hop probe: status %d, %v: %.100s", status, err, reply)
			}
			if i >= 20 { // the first replies fill the shard's result cache
				*leg.out = append(*leg.out, us(time.Since(t0)))
			}
		}
	}
	return median(viaUS) - median(directUS), nil
}
