package main

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/kernelreg"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// probes.go — the fixed request list that checks a daemon's outputs
// before any timing. It does not depend on the seed, so one golden
// digest per workload covers every run. The three daemon workloads use
// the same list: that serve_tail and cluster_tail digest equally is the
// router's byte-identity contract.

// probe is one verification request with the grid points its reply
// must carry, in order.
type probe struct {
	Req request
	Pts []sweep.Point
}

func (c config) simConfig() sim.Config {
	cfg := sim.Config{NPE: c.NPE, PageSize: c.PageSize, CacheElems: c.CacheElems}
	cfg.Policy = map[string]cache.Policy{"lru": cache.LRU, "fifo": cache.FIFO, "clock": cache.Clock, "random": cache.Random}[c.Policy]
	cfg.Layout = map[string]partition.Kind{"modulo": partition.KindModulo, "block": partition.KindBlock, "blockcyclic": partition.KindBlockCyclic}[c.Layout]
	if cfg.Layout == partition.KindBlockCyclic {
		cfg.LayoutRun = 1 // the server's visible default
	}
	return cfg
}

// daemonProbes draws three configurations per warm group and a sweep on
// every fifth group. resolve maps kernel keys (built-in or compiled) to
// kernels for the reference side.
func daemonProbes(reg *kernelreg.Registry) ([]probe, error) {
	r := rng(0x5eed)
	var out []probe
	for gi, g := range warmGroups() {
		k, err := reg.Resolve(g.Kernel)
		if err != nil {
			return nil, fmt.Errorf("probe kernel %s: %w", g.Kernel, err)
		}
		for i := 0; i < 3; i++ {
			c := drawConfig(&r)
			out = append(out, probe{
				Req: request{Kind: opClassify, Path: "/v1/classify", Body: classifyBody(g, c), Points: 1, Hot: -1},
				Pts: []sweep.Point{{Kernel: k, N: g.N, Config: c.simConfig()}},
			})
		}
		if gi%5 != 0 {
			continue
		}
		c := drawConfig(&r)
		sizes := []int{c.PageSize, tailPageSizes[(slices.Index(tailPageSizes, c.PageSize)+3)%len(tailPageSizes)]}
		var pts []sweep.Point
		for _, npe := range sweep.PaperPEs {
			for _, ps := range sizes {
				cc := c
				cc.NPE, cc.PageSize = npe, ps
				pts = append(pts, sweep.Point{Kernel: k, N: g.N, Config: cc.simConfig()})
			}
		}
		out = append(out, probe{
			Req: request{Kind: opSweep, Path: "/v1/sweep", Body: sweepBody(g, c, sizes), Points: len(pts), Hot: -1},
			Pts: pts,
		})
	}
	return out, nil
}

// localCatalogue compiles the catalogue into a fresh private registry.
func localCatalogue() (*kernelreg.Registry, error) {
	reg := kernelreg.New(kernelreg.Limits{}, nil)
	for _, p := range catalogue() {
		if _, err := reg.Compile(p.request(tenants[0])); err != nil {
			return nil, fmt.Errorf("compiling %s: %w", p.Name, err)
		}
	}
	return reg, nil
}

// referencePoints lists, in digest order, every point a workload's
// verification covers.
func referencePoints(w workload) ([]sweep.Point, error) {
	reg, err := localCatalogue()
	if err != nil {
		return nil, err
	}
	if !w.Daemon {
		return gridPoints(w.Name, reg)
	}
	probes, err := daemonProbes(reg)
	if err != nil {
		return nil, err
	}
	var pts []sweep.Point
	for _, p := range probes {
		pts = append(pts, p.Pts...)
	}
	return pts, nil
}
