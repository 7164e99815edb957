package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// golden.go — output checking. Every workload has a digest of its
// results produced by the reference engine (direct sim.Run, no replay)
// in golden/<workload>.sha256. A run recomputes the digest through the
// path under test — sweep results, or daemon/router response bodies —
// re-encoded into the canonical record below, which holds exactly the
// fields both forms carry.

// digest accumulates canonical records.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// addResult appends the canonical record of a simulator result.
func (d *digest) addResult(r *sim.Result) {
	p := serve.PointResult{
		Kernel: r.Kernel,
		N:      r.N,
		Config: serve.ConfigOut{
			NPE: r.Config.NPE, PageSize: r.Config.PageSize, CacheElems: r.Config.CacheElems,
			Policy: r.Config.Policy.String(), Layout: r.Config.Layout.String(), LayoutRun: r.Config.LayoutRun,
		},
		Totals: serve.CountersOut{
			Writes: r.Totals.Writes, LocalReads: r.Totals.LocalReads,
			CachedReads: r.Totals.CachedReads, RemoteReads: r.Totals.RemoteReads,
		},
		ReduceSends:  r.ReduceSends,
		ReduceBcasts: r.ReduceBcasts,
	}
	if len(r.Cache) > 0 {
		p.Cache = &serve.CacheOut{}
		for _, cs := range r.Cache {
			p.Cache.Hits += cs.Hits
			p.Cache.Misses += cs.Misses
			p.Cache.PartialMisses += cs.PartialMisses
			p.Cache.Inserts += cs.Inserts
			p.Cache.Refreshes += cs.Refreshes
			p.Cache.Evictions += cs.Evictions
		}
	}
	for _, cs := range r.Checksums {
		p.Checksums = append(p.Checksums, serve.ChecksumOut{Name: cs.Name, Elems: cs.Elems, Defined: cs.Defined, Sum: cs.Sum})
	}
	d.addPoint(&p)
}

// addBody appends the canonical record of one served point body.
func (d *digest) addBody(body []byte) error {
	var p serve.PointResult
	if err := json.Unmarshal(body, &p); err != nil {
		return fmt.Errorf("decoding point body: %w", err)
	}
	d.addPoint(&p)
	return nil
}

// addPoint writes the record. The "engine" field names the path that
// produced a body and is the one field the reference cannot share, so
// it is left out; the percentages are derived from the totals.
func (d *digest) addPoint(p *serve.PointResult) {
	fmt.Fprintf(d.h, "%s n=%d npe=%d ps=%d ce=%d pol=%s lay=%s run=%d|",
		p.Kernel, p.N, p.Config.NPE, p.Config.PageSize, p.Config.CacheElems,
		p.Config.Policy, p.Config.Layout, p.Config.LayoutRun)
	t := p.Totals
	fmt.Fprintf(d.h, "w=%d l=%d c=%d r=%d rs=%d rb=%d|", t.Writes, t.LocalReads, t.CachedReads, t.RemoteReads, p.ReduceSends, p.ReduceBcasts)
	var c serve.CacheOut
	if p.Cache != nil {
		c = *p.Cache
	}
	fmt.Fprintf(d.h, "h=%d m=%d pm=%d i=%d rf=%d e=%d|", c.Hits, c.Misses, c.PartialMisses, c.Inserts, c.Refreshes, c.Evictions)
	for _, cs := range p.Checksums {
		fmt.Fprintf(d.h, "%s:%d:%d:%016x,", cs.Name, cs.Elems, cs.Defined, math.Float64bits(cs.Sum))
	}
	d.h.Write([]byte{'\n'})
}

// referenceDigest runs every point on the reference engine.
func referenceDigest(pts []sweep.Point) (string, error) {
	d := newDigest()
	sc := sim.NewScratch()
	for _, p := range pts {
		r, err := sc.Run(p.Kernel, p.N, p.Config)
		if err != nil {
			return "", fmt.Errorf("reference run of %s: %w", p, err)
		}
		d.addResult(r)
	}
	return d.sum(), nil
}

func goldenPath(dir, workload string) string {
	return filepath.Join(dir, "golden", workload+".sha256")
}

func readGolden(dir, workload string) (string, error) {
	b, err := os.ReadFile(goldenPath(dir, workload))
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(b)), nil
}
