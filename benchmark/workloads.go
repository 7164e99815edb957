package main

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/kernelreg"
	"repro/internal/loops"
	"repro/internal/partition"
	"repro/internal/sweep"
)

func mustKernel(key string) *loops.Kernel {
	k, err := loops.ByKey(key)
	if err != nil {
		panic(err) // built-in key
	}
	return k
}

// gridPoints builds a grid workload's points in canonical order. reg
// receives the catalogue compiles grid_nscale needs.
func gridPoints(name string, reg *kernelreg.Registry) ([]sweep.Point, error) {
	switch name {
	case "grid_paper":
		return sweep.Grid{
			Kernels:    loops.PaperSet(),
			PageSizes:  []int{32, 64},
			CacheElems: []int{0, 256},
		}.Points(), nil
	case "grid_nscale":
		kernels := loops.PaperSet()
		for _, p := range nscalePrograms() {
			resp, err := reg.Compile(p.request(tenants[0]))
			if err != nil {
				return nil, fmt.Errorf("compiling %s: %w", p.Name, err)
			}
			k, err := reg.Resolve(resp.Kernel)
			if err != nil {
				return nil, err
			}
			kernels = append(kernels, k)
		}
		var pts []sweep.Point
		for _, k := range kernels {
			for i := 1; i <= 8; i++ {
				g := sweep.Grid{Kernels: []*loops.Kernel{k}, N: max(k.MinN, k.DefaultN*i/4), NPEs: []int{8}, CacheElems: []int{0, 256}}
				pts = append(pts, g.Points()...)
			}
		}
		return pts, nil
	case "grid_wide":
		var pts []sweep.Point
		for _, kn := range []struct {
			key string
			n   int
		}{{"k14frag", 0}, {"k1", 0}, {"k2", 0}, {"k6", 100}} {
			pts = append(pts, sweep.Grid{
				Kernels:    []*loops.Kernel{mustKernel(kn.key)},
				N:          kn.n,
				NPEs:       []int{1, 2, 3, 4, 6, 8, 12, 16, 32, 64},
				PageSizes:  []int{16, 32, 64, 128},
				CacheElems: []int{0, 64, 256, 2048},
				Layouts:    []partition.Kind{partition.KindModulo, partition.KindBlock, partition.KindBlockCyclic},
				Policies:   []cache.Policy{cache.LRU, cache.FIFO, cache.Clock, cache.Random},
			}.Points()...)
		}
		return pts, nil
	}
	return nil, fmt.Errorf("unknown grid workload %q", name)
}

// workload is one named set of inputs.
type workload struct {
	Name   string
	Why    string
	Daemon bool // spawns cmd/lfksimd; otherwise calls sweep.RunOpts in-process
	Router int  // shard count; 0 = single node
	// Rate caps the schedule length at Rate requests per measured second.
	Rate int
}

// workloads are stable names; later issues cite them.
var workloads = []workload{
	{Name: "grid_paper", Why: "the paper's own 308-point evaluation grid; capture ~0.3 and classification ~0.7 of serial work, so both layers matter and neither hides"},
	{Name: "grid_nscale", Why: "15 kernels (4 compiled from IR) x 8 problem sizes x 2 configs: every stream is fresh, capture dominates, fast paths do almost nothing"},
	{Name: "grid_wide", Why: "4 kernels x 1920 configs of every eligibility class: capture < 0.02 of the work, all of it batch classification"},
	{Name: "serve_hot", Why: "single daemon, 95% of requests from a 64-point hot set: result cache read-mostly, HTTP decode/admission/cache/write do the work", Daemon: true, Rate: 40000},
	{Name: "serve_tail", Why: "single daemon, result-cache misses on warm streams plus sweeps, cold captures and compiles: replay, Result assembly and encode do the work", Daemon: true, Rate: 12000},
	{Name: "cluster_tail", Why: "router + 2 shards + capture dir on the serve_tail schedule: the difference to serve_tail is the router hop and merge (overhead on 2 cores, not scale-out)", Daemon: true, Router: 2, Rate: 8000},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
