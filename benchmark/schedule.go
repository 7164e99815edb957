package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"repro/internal/kernelreg"
	"repro/internal/loops"
)

// schedule.go — the seeded request schedules of the daemon workloads.
// A schedule is a pure function of (workload, seed, length) and is
// materialised before the daemon starts; the daemon sees only the
// generated requests.

// rng is splitmix64: tiny, seedable, and the same on every Go release.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

type opKind uint8

const (
	opHot      opKind = iota // classify from the hot set (result-cache hit)
	opClassify               // classify at a fresh configuration of a warm group (result miss, stream hit)
	opSweep                  // 7- or 14-point /v1/sweep on a warm group
	opCold                   // classify at a never-seen problem size (cold capture)
	opCompile                // re-submission of a catalogue program
)

func (k opKind) String() string {
	return [...]string{"hot", "classify", "sweep", "cold", "compile"}[k]
}

// request is one scheduled HTTP request.
type request struct {
	Kind   opKind
	Path   string
	Body   []byte
	Points int // point bodies a 200 response carries
	Hot    int // index into the hot set, or -1
}

// group is a capture group: one (kernel, problem size) reference stream.
type group struct {
	Kernel string
	N      int // 0 = the kernel's default
}

// catalogueIDs compiles the catalogue in a private registry: kernel ids
// are content addresses, so the ids a daemon will hand out are known
// before it starts.
var catalogueIDs = sync.OnceValue(func() []string {
	reg := kernelreg.New(kernelreg.Limits{}, nil)
	var ids []string
	for _, p := range catalogue() {
		resp, err := reg.Compile(p.request(tenants[0]))
		if err != nil {
			panic(fmt.Sprintf("catalogue program %s does not compile: %v", p.Name, err)) // the catalogue is ours
		}
		ids = append(ids, resp.Kernel)
	}
	return ids
})

// warmGroups are the capture groups warm-up loads into the daemon's
// 64-entry stream cache: the paper's 11 kernels at three sizes and
// three variants of each catalogue family. 45 groups leave room for the
// cold captures that pass through the LRU.
func warmGroups() []group {
	var gs []group
	for _, k := range loops.PaperSet() {
		for _, n := range []int{k.DefaultN, k.DefaultN * 3 / 4, k.DefaultN / 2} {
			gs = append(gs, group{k.Key, n})
		}
	}
	ids := catalogueIDs()
	for fam := 0; fam < 4; fam++ {
		for v := 0; v < 3; v++ {
			gs = append(gs, group{ids[fam*4+v], 0})
		}
	}
	return gs
}

// The configuration axes the tail draws from. With 45 groups they span
// 45*64*8*(3 + 31*3*4) = 8.6M distinct canonical points, against a
// 4096-entry result cache.
var (
	tailPageSizes = []int{8, 16, 24, 32, 48, 64, 96, 128}
	tailLayouts   = []string{"modulo", "block", "blockcyclic"}
	tailPolicies  = []string{"lru", "fifo", "clock", "random"}
)

const tailCacheSteps = 32 // cache_elems = 32*i, i in [0, 32)

// coldKernels are the kernels cold captures use: linear-time loops, so
// a cold capture's cost depends on n alone.
var coldKernels = []string{"k1", "k5", "k7", "k11", "k12"}

// Cold problem sizes: the j-th cold request uses kernel j%5 at
// coldBaseN + a bijection of j/5 over [0, coldSpanN), which no warm
// group uses, so 5*2048 cold requests are all never-seen.
const (
	coldBaseN = 1100
	coldSpanN = 2048
)

// config is one drawn machine configuration in wire form.
type config struct {
	NPE, PageSize, CacheElems int
	Policy, Layout            string
}

func drawConfig(r *rng) config {
	c := config{
		NPE:        1 + r.intn(64),
		PageSize:   tailPageSizes[r.intn(len(tailPageSizes))],
		CacheElems: 32 * r.intn(tailCacheSteps),
		Layout:     tailLayouts[r.intn(len(tailLayouts))],
		Policy:     tailPolicies[r.intn(len(tailPolicies))],
	}
	if c.CacheElems == 0 {
		c.Policy = "lru" // inert without a cache; the server canonicalises it the same way
	}
	return c
}

func classifyBody(g group, c config) []byte {
	n := ""
	if g.N > 0 {
		n = fmt.Sprintf(`"n":%d,`, g.N)
	}
	return []byte(fmt.Sprintf(`{"kernel":%q,%s"npe":%d,"page_size":%d,"cache_elems":%d,"policy":%q,"layout":%q}`,
		g.Kernel, n, c.NPE, c.PageSize, c.CacheElems, c.Policy, c.Layout))
}

// sweepBody is a sweep over the default seven PE counts at one or two
// page sizes.
func sweepBody(g group, c config, pageSizes []int) []byte {
	n := ""
	if g.N > 0 {
		n = fmt.Sprintf(`"n":%d,`, g.N)
	}
	ps, _ := json.Marshal(pageSizes)
	return []byte(fmt.Sprintf(`{"kernels":[%q],%s"page_sizes":%s,"cache_elems":[%d],"policies":[%q],"layouts":[%q]}`,
		g.Kernel, n, ps, c.CacheElems, c.Policy, c.Layout))
}

// hotSet draws the 64 points serve_hot re-requests.
func hotSet(seed int64) [][]byte {
	r := rng(seed)*2 + 1
	gs := warmGroups()
	out := make([][]byte, 64)
	for i := range out {
		out[i] = classifyBody(gs[r.intn(len(gs))], drawConfig(&r))
	}
	return out
}

// schedule materialises n requests of a daemon workload. cluster_tail
// and serve_tail share one generator, so for one seed the shorter
// schedule is a prefix of the longer.
func schedule(workload string, seed int64, n int) ([]request, error) {
	gs := warmGroups()
	r := rng(seed)
	out := make([]request, 0, n)
	tail := func() request {
		return request{Kind: opClassify, Path: "/v1/classify", Body: classifyBody(gs[r.intn(len(gs))], drawConfig(&r)), Points: 1, Hot: -1}
	}
	switch workload {
	case "serve_hot":
		hot := hotSet(seed)
		for len(out) < n {
			if r.intn(100) < 95 {
				h := r.intn(len(hot))
				out = append(out, request{Kind: opHot, Path: "/v1/classify", Body: hot[h], Points: 1, Hot: h})
			} else {
				out = append(out, tail())
			}
		}
	case "serve_tail", "cluster_tail":
		progs := catalogue()
		cold := 0
		for len(out) < n {
			switch p := r.intn(100); {
			case p < 80:
				out = append(out, tail())
			case p < 90:
				g, c := gs[r.intn(len(gs))], drawConfig(&r)
				sizes := []int{c.PageSize}
				if r.intn(2) == 1 {
					sizes = append(sizes, tailPageSizes[(r.intn(len(tailPageSizes)-1)+1+slices.Index(tailPageSizes, c.PageSize))%len(tailPageSizes)])
				}
				out = append(out, request{Kind: opSweep, Path: "/v1/sweep", Body: sweepBody(g, c, sizes), Points: 7 * len(sizes), Hot: -1})
			case p < 95:
				// 1365 is odd, so j -> 1365*j mod 2048 is a bijection.
				g := group{coldKernels[cold%len(coldKernels)], coldBaseN + (cold/len(coldKernels)*1365)%coldSpanN}
				cold++
				out = append(out, request{Kind: opCold, Path: "/v1/classify", Body: classifyBody(g, drawConfig(&r)), Points: 1, Hot: -1})
			default:
				prog := progs[r.intn(len(progs))]
				body, err := json.Marshal(prog.request(tenants[r.intn(len(tenants))]))
				if err != nil {
					return nil, err
				}
				out = append(out, request{Kind: opCompile, Path: "/v1/compile", Body: body, Hot: -1})
			}
		}
	default:
		return nil, fmt.Errorf("no schedule for workload %q", workload)
	}
	return out, nil
}
