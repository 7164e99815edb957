package serve

// api.go — the wire types of the classification service, the
// canonicalization that turns a request into a cache key, and the
// deterministic JSON encoding of results.
//
// Determinism contract: identical requests produce bit-identical
// response bodies. Point bodies are encoded once from fixed structs
// (encoding/json is deterministic over structs), cached verbatim, and
// re-served byte-for-byte; a recomputation after eviction re-encodes
// the same simulator result (itself bit-stable) into the same bytes.

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/kernelreg"
	"repro/internal/loops"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// ClassifyRequest is the body of POST /v1/classify: one grid point.
// Zero-valued fields select the paper's baseline (npe 8, page size 32,
// 256-element LRU cache, modulo layout, kernel-default problem size).
type ClassifyRequest struct {
	Kernel     string `json:"kernel"`
	N          int    `json:"n,omitempty"`
	NPE        int    `json:"npe,omitempty"`
	PageSize   int    `json:"page_size,omitempty"`
	CacheElems *int   `json:"cache_elems,omitempty"` // pointer: 0 (no cache) differs from absent (256)
	Policy     string `json:"policy,omitempty"`      // lru | fifo | clock | random
	Layout     string `json:"layout,omitempty"`      // modulo | block | blockcyclic
	LayoutRun  int    `json:"layout_run,omitempty"`  // block-cyclic run length
	// PartialFill enables the §4/§8 partially-filled-page ablation; such
	// points are ineligible for stream replay and run directly.
	PartialFill bool `json:"partial_fill,omitempty"`
	// IncludePerPE / IncludeTraffic add the per-PE counter vector and
	// the NPE×NPE message matrix to the response (both off by default to
	// keep bodies small).
	IncludePerPE   bool `json:"include_per_pe,omitempty"`
	IncludeTraffic bool `json:"include_traffic,omitempty"`
	// DeadlineMS overrides the server's per-request deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: a parameter grid, axes
// crossed exactly like sweep.Grid (kernels outermost, then NPEs, page
// sizes, cache sizes, layouts, policies innermost). Empty axes select
// the paper's baseline; empty kernels selects the paper's studied set.
type SweepRequest struct {
	Kernels        []string `json:"kernels,omitempty"`
	N              int      `json:"n,omitempty"`
	NPEs           []int    `json:"npes,omitempty"`
	PageSizes      []int    `json:"page_sizes,omitempty"`
	CacheElems     []int    `json:"cache_elems,omitempty"`
	Layouts        []string `json:"layouts,omitempty"`
	Policies       []string `json:"policies,omitempty"`
	LayoutRun      int      `json:"layout_run,omitempty"`
	IncludePerPE   bool     `json:"include_per_pe,omitempty"`
	IncludeTraffic bool     `json:"include_traffic,omitempty"`
	DeadlineMS     int64    `json:"deadline_ms,omitempty"`
}

// ConfigOut echoes the canonical configuration a point was served at.
type ConfigOut struct {
	NPE         int    `json:"npe"`
	PageSize    int    `json:"page_size"`
	CacheElems  int    `json:"cache_elems"`
	Policy      string `json:"policy"`
	Layout      string `json:"layout"`
	LayoutRun   int    `json:"layout_run,omitempty"`
	PartialFill bool   `json:"partial_fill,omitempty"`
}

// CountersOut is one access-class counter vector.
type CountersOut struct {
	Writes      int64 `json:"writes"`
	LocalReads  int64 `json:"local_reads"`
	CachedReads int64 `json:"cached_reads"`
	RemoteReads int64 `json:"remote_reads"`
}

func countersOut(c stats.Counters) CountersOut {
	return CountersOut{
		Writes:      c.Writes,
		LocalReads:  c.LocalReads,
		CachedReads: c.CachedReads,
		RemoteReads: c.RemoteReads,
	}
}

// CacheOut aggregates the per-PE cache statistics of a run.
type CacheOut struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	PartialMisses int64 `json:"partial_misses"`
	Inserts       int64 `json:"inserts"`
	Refreshes     int64 `json:"refreshes"`
	Evictions     int64 `json:"evictions"`
}

// ChecksumOut is one output-array checksum.
type ChecksumOut struct {
	Name    string  `json:"name"`
	Elems   int     `json:"elems"`
	Defined int     `json:"defined"`
	Sum     float64 `json:"sum"`
}

// PointResult is the response body of /v1/classify and one element of
// a /v1/sweep response.
type PointResult struct {
	Kernel        string        `json:"kernel"`
	N             int           `json:"n"`
	Config        ConfigOut     `json:"config"`
	Engine        string        `json:"engine"` // "replay" or "direct"
	Totals        CountersOut   `json:"totals"`
	RemotePercent float64       `json:"remote_percent"`
	CachedPercent float64       `json:"cached_percent"`
	ReduceSends   int64         `json:"reduce_sends"`
	ReduceBcasts  int64         `json:"reduce_bcasts"`
	Cache         *CacheOut     `json:"cache,omitempty"`
	Checksums     []ChecksumOut `json:"checksums"`
	PerPE         []CountersOut `json:"per_pe,omitempty"`
	Traffic       [][]int64     `json:"traffic,omitempty"`
}

// SweepResult is the response body of /v1/sweep. Points are in grid
// order, each bit-identical to the /v1/classify body of the same point.
type SweepResult struct {
	Count  int               `json:"count"`
	Points []json.RawMessage `json:"points"`
}

// KernelInfo is one entry of GET /v1/kernels.
type KernelInfo struct {
	Key      string `json:"key"`
	Name     string `json:"name"`
	Class    string `json:"class"`
	DefaultN int    `json:"default_n"`
	MinN     int    `json:"min_n"`
	Paper    bool   `json:"paper"` // part of the paper's studied set
}

// ErrorBody is the JSON body of every non-2xx response. Code and
// Diagnostics are set only by the compile subsystem's structured
// rejections (omitempty keeps every pre-existing error body
// byte-identical).
type ErrorBody struct {
	Error       string           `json:"error"`
	Code        string           `json:"code,omitempty"`
	Diagnostics []kernelreg.Diag `json:"diagnostics,omitempty"`
}

// point is a fully canonicalized, validated grid point: the unit of
// execution, caching and deduplication.
type point struct {
	kernel  *loops.Kernel
	n       int // clamped
	cfg     sim.Config
	perPE   bool
	traffic bool
}

// key renders the canonical cache key. Two requests map to the same
// key exactly when their response bodies are guaranteed identical.
func (p point) key() string {
	return fmt.Sprintf("%s|n=%d|npe=%d|ps=%d|ce=%d|pol=%s|lay=%s|run=%d|pf=%t|pp=%t|tr=%t",
		p.kernel.Key, p.n, p.cfg.NPE, p.cfg.PageSize, p.cfg.CacheElems,
		p.cfg.Policy, p.cfg.Layout, p.cfg.LayoutRun,
		p.cfg.ModelPartialFill, p.perPE, p.traffic)
}

func parsePolicy(s string) (cache.Policy, error) {
	switch strings.ToLower(s) {
	case "", "lru":
		return cache.LRU, nil
	case "fifo":
		return cache.FIFO, nil
	case "clock":
		return cache.Clock, nil
	case "random":
		return cache.Random, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want lru, fifo, clock or random)", s)
}

func parseLayout(s string) (partition.Kind, error) {
	switch strings.ToLower(s) {
	case "", "modulo":
		return partition.KindModulo, nil
	case "block":
		return partition.KindBlock, nil
	case "blockcyclic", "block-cyclic":
		return partition.KindBlockCyclic, nil
	}
	return 0, fmt.Errorf("unknown layout %q (want modulo, block or blockcyclic)", s)
}

// The fixed bounds on one point a request may ask for; with
// limits.maxSweepPoints they exist so no request can allocate or
// compute without bound.
const (
	maxN          = 1 << 20
	maxNPE        = 1024
	maxPageSize   = 1 << 20
	maxCacheElems = 1 << 24
)

// limits is the per-server part of what a single request may ask of
// the process.
type limits struct {
	maxSweepPoints int
	// reg resolves kernel keys: built-ins via loops.ByKey, compiled
	// "u:" ids via the registry. A nil registry still resolves
	// built-ins (kernelreg.Resolve is nil-safe), so limits taken from a
	// bare Options in tests keep working.
	reg *kernelreg.Registry
}

// canonPoint validates and canonicalizes one classify request into a
// point. Canonicalization — problem-size clamping, defaulting, zeroing
// layout_run under non-block-cyclic layouts, forcing policy to lru when
// the cache is disabled — is visible: the response echoes the canonical
// configuration, and the cache key is derived from it, so equivalent
// requests share one cache entry and one body.
func canonPoint(req ClassifyRequest, lim limits) (point, error) {
	k, err := lim.reg.Resolve(req.Kernel)
	if err != nil {
		return point{}, err
	}
	if req.N < 0 {
		return point{}, fmt.Errorf("n must be >= 0 (0 selects the kernel default), got %d", req.N)
	}
	if req.N > maxN {
		return point{}, fmt.Errorf("n %d exceeds the server limit %d", req.N, maxN)
	}
	cfg := sim.Config{
		NPE:              req.NPE,
		PageSize:         req.PageSize,
		CacheElems:       256,
		ModelPartialFill: req.PartialFill,
	}
	if cfg.NPE == 0 {
		cfg.NPE = 8
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = 32
	}
	if req.CacheElems != nil {
		cfg.CacheElems = *req.CacheElems
	}
	if cfg.Policy, err = parsePolicy(req.Policy); err != nil {
		return point{}, err
	}
	if cfg.Layout, err = parseLayout(req.Layout); err != nil {
		return point{}, err
	}
	if req.LayoutRun < 0 {
		return point{}, fmt.Errorf("layout_run must be >= 0, got %d", req.LayoutRun)
	}
	if cfg.Layout == partition.KindBlockCyclic {
		cfg.LayoutRun = req.LayoutRun
		if cfg.LayoutRun == 0 {
			cfg.LayoutRun = 1 // partition.Make's own default, made visible
		}
	}
	if cfg.CacheElems == 0 {
		cfg.Policy = cache.LRU // policy is inert without a cache
	}
	if err := cfg.Validate(); err != nil {
		return point{}, err
	}
	switch {
	case cfg.NPE > maxNPE:
		return point{}, fmt.Errorf("npe %d exceeds the server limit %d", cfg.NPE, maxNPE)
	case cfg.PageSize > maxPageSize:
		return point{}, fmt.Errorf("page_size %d exceeds the server limit %d", cfg.PageSize, maxPageSize)
	case cfg.CacheElems > maxCacheElems:
		return point{}, fmt.Errorf("cache_elems %d exceeds the server limit %d", cfg.CacheElems, maxCacheElems)
	}
	return point{
		kernel:  k,
		n:       k.ClampN(req.N),
		cfg:     cfg,
		perPE:   req.IncludePerPE,
		traffic: req.IncludeTraffic,
	}, nil
}

// canonSweep expands a sweep request into canonical points in grid
// order. The axes are crossed by sweep.Grid itself, so the service's
// grid semantics are the engine's by construction.
func canonSweep(req SweepRequest, lim limits) ([]point, error) {
	keys := req.Kernels
	if len(keys) == 0 {
		for _, k := range loops.PaperSet() {
			keys = append(keys, k.Key)
		}
	}
	kernels := make([]*loops.Kernel, len(keys))
	for i, key := range keys {
		k, err := lim.reg.Resolve(key)
		if err != nil {
			return nil, err
		}
		kernels[i] = k
	}
	layouts := make([]partition.Kind, 0, len(req.Layouts))
	for _, s := range req.Layouts {
		l, err := parseLayout(s)
		if err != nil {
			return nil, err
		}
		layouts = append(layouts, l)
	}
	policies := make([]cache.Policy, 0, len(req.Policies))
	for _, s := range req.Policies {
		p, err := parsePolicy(s)
		if err != nil {
			return nil, err
		}
		policies = append(policies, p)
	}
	grid := sweep.Grid{
		Kernels:    kernels,
		N:          req.N,
		NPEs:       req.NPEs,
		PageSizes:  req.PageSizes,
		CacheElems: req.CacheElems,
		Layouts:    layouts,
		Policies:   policies,
	}
	if size := grid.Size(); size > lim.maxSweepPoints {
		return nil, fmt.Errorf("sweep expands to %d points, over the server limit %d", size, lim.maxSweepPoints)
	}
	pts := grid.Points()
	out := make([]point, len(pts))
	for i, gp := range pts {
		cr := ClassifyRequest{
			Kernel:         gp.Kernel.Key,
			N:              req.N,
			NPE:            gp.Config.NPE,
			PageSize:       gp.Config.PageSize,
			CacheElems:     &gp.Config.CacheElems,
			Policy:         gp.Config.Policy.String(),
			Layout:         gp.Config.Layout.String(),
			LayoutRun:      req.LayoutRun,
			IncludePerPE:   req.IncludePerPE,
			IncludeTraffic: req.IncludeTraffic,
		}
		p, err := canonPoint(cr, lim)
		if err != nil {
			return nil, fmt.Errorf("grid point %d (%s): %w", i, gp, err)
		}
		out[i] = p
	}
	return out, nil
}

// encodePoint renders the canonical JSON body of one served point.
func encodePoint(p point, engine string, res *sim.Result) ([]byte, error) {
	pr := PointResult{
		Kernel: p.kernel.Key,
		N:      p.n,
		Config: ConfigOut{
			NPE:         p.cfg.NPE,
			PageSize:    p.cfg.PageSize,
			CacheElems:  p.cfg.CacheElems,
			Policy:      p.cfg.Policy.String(),
			Layout:      p.cfg.Layout.String(),
			LayoutRun:   p.cfg.LayoutRun,
			PartialFill: p.cfg.ModelPartialFill,
		},
		Engine:        engine,
		Totals:        countersOut(res.Totals),
		RemotePercent: res.Totals.RemotePercent(),
		CachedPercent: res.Totals.CachedPercent(),
		ReduceSends:   res.ReduceSends,
		ReduceBcasts:  res.ReduceBcasts,
		Checksums:     make([]ChecksumOut, 0, len(res.Checksums)),
	}
	if len(res.Cache) > 0 {
		agg := &CacheOut{}
		for _, cs := range res.Cache {
			agg.Hits += cs.Hits
			agg.Misses += cs.Misses
			agg.PartialMisses += cs.PartialMisses
			agg.Inserts += cs.Inserts
			agg.Refreshes += cs.Refreshes
			agg.Evictions += cs.Evictions
		}
		pr.Cache = agg
	}
	for _, cs := range res.Checksums {
		pr.Checksums = append(pr.Checksums, ChecksumOut{
			Name: cs.Name, Elems: cs.Elems, Defined: cs.Defined, Sum: cs.Sum,
		})
	}
	if p.perPE {
		pr.PerPE = make([]CountersOut, len(res.PerPE))
		for i, c := range res.PerPE {
			pr.PerPE[i] = countersOut(c)
		}
	}
	if p.traffic {
		pr.Traffic = res.Traffic
	}
	return json.Marshal(&pr)
}
