package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/ir"
	"repro/internal/kernelreg"
	"repro/internal/loops"
	"repro/internal/partition"
	"repro/internal/refstream"
	"repro/internal/refstream/store"
	"repro/internal/serve"
	"repro/internal/sim"
)

// ladder.go — the rungs a request crosses, each timed from outside by
// calling the layer's exported functions on fixed inputs. The same work
// runs in every traced run, whatever the workload, so a rung's number
// means the same thing next to any end-to-end metric.

// rung times f over reps calls and returns the median in microseconds.
func rung(tr *tracer, name string, reps int, f func(i int) error) (float64, error) {
	d := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		sp := tr.start(name, 0, i)
		err := f(i)
		d = append(d, tr.end(sp))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(d), nil
}

// classConfigs returns a homogeneous config set for one row of the
// docs/PERF.md eligibility table. The classes are predicates on the
// configuration, not on the path taken: no counter says which path ran.
func classConfigs(class string) []sim.Config {
	var out []sim.Config
	add := func(npe, ps, ce int, lay partition.Kind, pol cache.Policy) {
		c := sim.Config{NPE: npe, PageSize: ps, CacheElems: ce, Layout: lay, Policy: pol}
		out = append(out, c)
	}
	for _, ps := range []int{16, 32, 64, 128} {
		switch class {
		case "orderfree_pow2":
			for _, npe := range []int{2, 4, 8, 16, 32, 64} {
				add(npe, ps, 0, partition.KindModulo, cache.LRU)
			}
		case "orderfree_other":
			for _, npe := range []int{3, 6, 12} {
				add(npe, ps, 0, partition.KindModulo, cache.LRU)
				add(npe, ps, 0, partition.KindBlock, cache.LRU)
			}
		case "lru_small_pow2":
			for _, npe := range []int{2, 4, 8, 16, 32, 64} {
				add(npe, ps, 4*ps, partition.KindModulo, cache.LRU)
			}
		case "lru_other":
			for _, npe := range []int{3, 6, 12} {
				add(npe, ps, 32*ps, partition.KindModulo, cache.LRU)
				add(npe, ps, 4*ps, partition.KindBlock, cache.LRU)
			}
		case "policy_other":
			for _, pol := range []cache.Policy{cache.FIFO, cache.Clock, cache.Random} {
				add(8, ps, 8*ps, partition.KindModulo, pol)
				add(6, ps, 8*ps, partition.KindBlock, pol)
			}
		}
	}
	return out
}

var ladderClasses = []string{"orderfree_pow2", "orderfree_other", "lru_small_pow2", "lru_other", "policy_other"}

// paperGroupConfigs is the 28-config group grid_paper gives each kernel.
func paperGroupConfigs() []sim.Config {
	var out []sim.Config
	for _, npe := range []int{1, 2, 4, 8, 16, 32, 64} {
		for _, ps := range []int{32, 64} {
			for _, ce := range []int{0, 256} {
				c := sim.PaperConfig(npe, ps)
				c.CacheElems = ce
				out = append(out, c)
			}
		}
	}
	return out
}

// runLadder measures every workload-independent rung into res.
func runLadder(env *environment, tr *tracer, res *result) error {
	const reps = 9
	progs := catalogue()

	// ir and kernelreg.
	var parsed []*ir.Program
	parseUS, err := rung(tr, "ir.Parse", reps, func(int) error {
		parsed = parsed[:0]
		for _, p := range progs {
			prog, err := ir.Parse(p.Source)
			if err != nil {
				return err
			}
			parsed = append(parsed, prog)
		}
		return nil
	})
	if err != nil {
		return err
	}
	buildUS, err := rung(tr, "ir.Program.Kernel", reps, func(int) error {
		for i, prog := range parsed {
			if progs[i].Convert {
				continue // not single-assignment as written; covered by compile_miss_us
			}
			if _, err := prog.Kernel(progs[i].DefaultN); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var kreg *kernelreg.Registry
	missUS, err := rung(tr, "kernelreg.Compile.miss", reps, func(int) error {
		kreg = kernelreg.New(kernelreg.Limits{}, nil)
		for _, p := range progs {
			if _, err := kreg.Compile(p.request(tenants[0])); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	hitUS, err := rung(tr, "kernelreg.Compile.hit", reps, func(i int) error {
		for _, p := range progs {
			if _, err := kreg.Compile(p.request(tenants[i%len(tenants)])); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := float64(len(progs))
	res.set("ir.parse_us", parseUS/n)
	res.set("ir.kernel_build_us", buildUS/12) // the 12 programs that need no conversion
	res.set("kernelreg.compile_miss_us", missUS/n)
	res.set("kernelreg.compile_hit_us", hitUS/n)

	// sim and refstream over reference kernels: one of each access class
	// for the built-ins, the four nscale programs for the IR walker.
	var builtin, compiled []*loops.Kernel
	for _, key := range []string{"k14frag", "k1", "k2", "k6"} {
		builtin = append(builtin, mustKernel(key))
	}
	for _, p := range nscalePrograms() {
		resp, err := kreg.Compile(p.request(tenants[0]))
		if err != nil {
			return err
		}
		k, err := kreg.Resolve(resp.Kernel)
		if err != nil {
			return err
		}
		compiled = append(compiled, k)
	}
	sc := sim.NewScratch()
	streams := make([]*refstream.Stream, len(builtin))
	capture := func(name string, ks []*loops.Kernel, keep []*refstream.Stream) (float64, error) {
		events := 0
		t, err := rung(tr, name, reps, func(int) error {
			events = 0
			for i, k := range ks {
				st, err := refstream.CaptureScratch(sc, k, 0)
				if err != nil {
					return err
				}
				events += st.Events()
				if keep != nil {
					keep[i] = st
				}
			}
			return nil
		})
		return t / (float64(events) / 1000), err
	}
	capBuiltin, err := capture("refstream.CaptureScratch.builtin", builtin, streams)
	if err != nil {
		return err
	}
	capIR, err := capture("refstream.CaptureScratch.ir", compiled, nil)
	if err != nil {
		return err
	}
	res.set("refstream.capture_us_per_kevent.builtin", capBuiltin)
	res.set("refstream.capture_us_per_kevent.ir", capIR)
	events, encoded := 0, 0
	for _, st := range streams {
		events += st.Events()
		encoded += st.EncodedBytes()
	}
	res.set("refstream.stream_bytes_per_event", float64(encoded)/float64(events))
	simUS, err := rung(tr, "sim.Scratch.Run", reps, func(int) error {
		for _, k := range builtin {
			if _, err := sc.Run(k, 0, sim.PaperConfig(8, 32)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("sim.run_us_per_kevent", simUS/(float64(events)/1000))

	// Batch passes: cold (fresh stream, memo builds included) against warm.
	rp := refstream.NewReplayer()
	groupCfgs := paperGroupConfigs()
	var fresh []*refstream.Stream // captured outside the spans: a span cannot exclude part of its interval
	var cold, warm []float64
	for i := 0; i < reps; i++ {
		fresh = fresh[:0]
		for _, k := range builtin {
			st, err := refstream.CaptureScratch(sc, k, 0)
			if err != nil {
				return err
			}
			fresh = append(fresh, st)
		}
		for pass, out := range []*[]float64{&cold, &warm} {
			sp := tr.start([]string{"refstream.RunBatchN.cold", "refstream.RunBatchN.warm"}[pass], 0, i)
			for _, st := range fresh {
				if _, err := rp.RunBatchN(st, groupCfgs, 1); err != nil {
					return err
				}
			}
			*out = append(*out, tr.end(sp))
		}
	}
	perGroup := float64(len(builtin))
	res.set("refstream.batch_cold_us", median(cold)/perGroup)
	res.set("refstream.batch_warm_us_per_config", median(warm)/perGroup/float64(len(groupCfgs)))
	res.set("refstream.memo_build_us", (median(cold)-median(warm))/perGroup)
	for _, class := range ladderClasses {
		cfgs := classConfigs(class)
		for _, st := range streams { // build this class's memos outside the timing
			if _, err := rp.RunBatchN(st, cfgs, 1); err != nil {
				return err
			}
		}
		t, err := rung(tr, "refstream.RunBatchN."+class, reps, func(int) error {
			for _, st := range streams {
				if _, err := rp.RunBatchN(st, cfgs, 1); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		res.set("refstream.batch_us_per_config."+class, t/perGroup/float64(len(cfgs)))
	}
	single := refstream.NewReplayer()
	replayUS, err := rung(tr, "refstream.Replayer.Run", reps, func(int) error {
		for _, st := range streams {
			for _, cfg := range groupCfgs {
				if _, err := single.Run(st, cfg); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("refstream.replay1_us", replayUS/perGroup/float64(len(groupCfgs)))

	// Codec and store.
	encodedStreams := make([][]byte, len(streams))
	marshalUS, err := rung(tr, "refstream.Stream.MarshalBinary", reps, func(int) error {
		for i, st := range streams {
			b, err := st.MarshalBinary()
			if err != nil {
				return err
			}
			encodedStreams[i] = b
		}
		return nil
	})
	if err != nil {
		return err
	}
	unmarshalUS, err := rung(tr, "refstream.UnmarshalStream", reps, func(int) error {
		for _, b := range encodedStreams {
			if _, err := refstream.UnmarshalStream(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("refstream.marshal_us", marshalUS/perGroup)
	res.set("refstream.unmarshal_us", unmarshalUS/perGroup)
	storeDir := filepath.Join(env.work, "ladder-store")
	defer os.RemoveAll(storeDir)
	saveUS, err := rung(tr, "store.Save", reps, func(i int) error {
		st, err := store.Open(filepath.Join(storeDir, fmt.Sprint(i)), nil)
		if err != nil {
			return err
		}
		for _, s := range streams {
			st.Save(s)
		}
		if st.Len() != len(streams) {
			return fmt.Errorf("store holds %d of %d streams", st.Len(), len(streams))
		}
		return nil
	})
	if err != nil {
		return err
	}
	loadUS, err := rung(tr, "store.Open+Load", reps, func(i int) error {
		st, err := store.Open(filepath.Join(storeDir, fmt.Sprint(i)), nil)
		if err != nil {
			return err
		}
		for _, k := range builtin {
			if _, ok := st.Load(k, 0); !ok {
				return fmt.Errorf("%s not on disk", k.Key)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("store.save_us", saveUS/perGroup)
	res.set("store.load_us", loadUS/perGroup)

	// The serve handler without a socket: hit, miss on a warm stream,
	// cold capture.
	srv := serve.New(serve.Options{Workers: 2, AccessLog: io.Discard})
	defer srv.Close()
	h := srv.Handler()
	call := func(body []byte) error {
		req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler status %d: %.200s", rec.Code, rec.Body.Bytes())
		}
		return nil
	}
	k1 := group{"k1", 0}
	hot := classifyBody(k1, config{NPE: 8, PageSize: 32, CacheElems: 256, Policy: "lru", Layout: "modulo"})
	if err := call(hot); err != nil {
		return err
	}
	const perRep = 50
	r := rng(7)
	hitHandlerUS, err := rung(tr, "serve.Handler.hit", reps, func(int) error {
		for j := 0; j < perRep; j++ {
			if err := call(hot); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	missHandlerUS, err := rung(tr, "serve.Handler.miss", reps, func(int) error {
		for j := 0; j < perRep; j++ {
			if err := call(classifyBody(k1, drawConfig(&r))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	coldN := coldBaseN
	coldHandlerUS, err := rung(tr, "serve.Handler.cold", reps, func(int) error {
		for j := 0; j < 5; j++ {
			coldN++
			if err := call(classifyBody(group{"k1", coldN}, drawConfig(&r))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("serve.handler_hit_us", hitHandlerUS/perRep)
	res.set("serve.handler_miss_us", missHandlerUS/perRep)
	res.set("serve.handler_cold_us", coldHandlerUS/5)

	// Cold start: spawn a daemon on a capture dir and wait for the first
	// k6 classify; first on an empty dir, then on the dir that run filled.
	k6 := classifyBody(group{"k6", 0}, config{NPE: 8, PageSize: 32, CacheElems: 256, Policy: "lru", Layout: "modulo"})
	var empty, warmDir []float64
	for i := 0; i < 3; i++ {
		dir := filepath.Join(env.work, fmt.Sprintf("ladder-coldstart-%d", i))
		for _, out := range []*[]float64{&empty, &warmDir} {
			name := "lfksimd.cold_start.warm_dir"
			if out == &empty {
				name = "lfksimd.cold_start.empty_dir"
			}
			sp := tr.start(name, 0, i)
			d, err := startDaemon(env.lfksimd, dir, 0, filepath.Join(dir, "captures"))
			if err != nil {
				return err
			}
			c, err := dial(d.addr)
			if err != nil {
				d.stop()
				return err
			}
			status, reply, err := c.post("/v1/classify", k6)
			*out = append(*out, time.Since(d.spawn).Seconds()*1e3)
			tr.end(sp)
			c.close()
			d.stop()
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("cold-start classify: status %d, %v: %.100s", status, err, reply)
			}
		}
		_ = os.RemoveAll(dir)
	}
	res.set("store.cold_start_ms.empty_dir", median(empty))
	res.set("store.cold_start_ms.warm_dir", median(warmDir))
	return nil
}
