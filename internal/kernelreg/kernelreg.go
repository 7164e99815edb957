// Package kernelreg is the kernel registry behind POST /v1/compile:
// the subsystem that turns the daemon's fixed 24-kernel menu into an
// open platform. A tenant submits Fortran-flavored loop-nest source;
// the registry parses it (internal/ir), reports the §5 single-
// assignment diagnostics, optionally applies the ordinary-loop→SA
// conversion (internal/convert), derives hard resource ceilings from
// the affine structure, verifies the compiled kernel on the reference
// engine at sentinel sizes, and registers it under a content-addressed
// id — "u:" + hex SHA-256 of the canonical IR rendering — that the
// classify/sweep paths resolve exactly like a built-in key.
//
// Content addressing is what makes the open platform safe to
// distribute: the id is a pure function of the program, so two tenants
// submitting the same loop nest share one kernel, one capture stream,
// and one disk-store entry, and a router can replicate a compile to
// every shard knowing all of them derive the same id. The registry
// enforces that the canonical rendering is a parse/render fixed point
// before hashing, so the id space cannot be split by programs that
// re-render differently.
//
// The registry is bounded two ways: total capacity (LRU eviction — a
// compiled kernel is cheap to re-register from source) and a per-tenant
// live-kernel quota, so one tenant cannot evict the world.
package kernelreg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/convert"
	"repro/internal/ir"
	"repro/internal/loops"
	"repro/internal/lru"
	"repro/internal/obs"
)

// Metric names for the registry family. Counters except where noted.
const (
	MetricCompiles      = "kernelreg.compiles"       // compile attempts
	MetricCompileHits   = "kernelreg.compile_hits"   // recompiles of an already-registered id
	MetricCompileErrors = "kernelreg.compile_errors" // rejected compiles (4xx)
	MetricEvictions     = "kernelreg.evictions"      // LRU evictions under capacity pressure
	MetricQuotaRejects  = "kernelreg.quota_rejects"  // compiles rejected by the per-tenant quota
	MetricResolveMisses = "kernelreg.resolve_misses" // lookups of unknown compiled ids
	MetricVerifyRuns    = "kernelreg.verify_runs"    // sentinel-size reference executions (a compile hit runs none)
	MetricEntries       = "kernelreg.entries"        // gauge: registered compiled kernels
)

// IDPrefix distinguishes compiled-kernel ids from built-in keys.
const IDPrefix = "u:"

// IsCompiledID reports whether key names a registry-resident kernel
// (as opposed to a built-in loops key).
func IsCompiledID(key string) bool { return strings.HasPrefix(key, IDPrefix) }

// IDOf returns the content address of a canonical source: "u:" + hex
// SHA-256 of the bytes.
func IDOf(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return IDPrefix + hex.EncodeToString(sum[:])
}

// The registry's fixed bounds on what a compile may cost and what the
// registry may hold.
const (
	MaxSourceBytes        = 64 << 10        // request source ceiling
	maxStatements         = 256             // assignment statements after conversion
	maxLoopDepth          = 8               // loop-nest depth
	maxArrays             = 64              // declared arrays after conversion
	maxOps          int64 = 1 << 22         // estimated executed RHS terms at any admitted n
	maxArrayBytes   int64 = 128 << 20       // total array footprint at any admitted n
	maxKernelN            = 1 << 16         // ceiling on the derived per-kernel MaxN
	capacity              = 256             // registry entries before LRU eviction
	tenantQuota           = 64              // live kernels per tenant
	compileDeadline       = 2 * time.Second // wall budget per compile
)

// Limits is the registry's configuration. It has no fields: every
// bound is one of the constants above.
type Limits struct{}

// Info is the listable metadata of one registered kernel.
type Info struct {
	ID        string    `json:"id"`
	Name      string    `json:"name"`
	Arity     int       `json:"arity"`
	DefaultN  int       `json:"default_n"`
	MaxN      int       `json:"max_n"`
	Tenant    string    `json:"tenant,omitempty"`
	CreatedAt time.Time `json:"created_at"`
}

type entry struct {
	info   Info
	k      *loops.Kernel
	source string // canonical source (including trailing END), for replication
}

// Registry is the bounded store of compiled kernels. Safe for
// concurrent use. The nil *Registry resolves built-in keys only.
type Registry struct {
	deadline time.Duration // compileDeadline; tests shorten it

	compiles      *obs.Counter
	hits          *obs.Counter
	compileErrors *obs.Counter
	evictions     *obs.Counter
	quotaRejects  *obs.Counter
	resolveMisses *obs.Counter
	verifyRuns    *obs.Counter
	entriesGauge  *obs.Gauge

	mu      sync.Mutex
	entries *lru.Cache[string, *entry] // by id; evicts past capacity
	tenants map[string]int
}

// New creates a registry. reg may be nil (metrics become no-ops).
func New(lim Limits, reg *obs.Registry) *Registry {
	r := &Registry{
		deadline:      compileDeadline,
		compiles:      reg.Counter(MetricCompiles),
		hits:          reg.Counter(MetricCompileHits),
		compileErrors: reg.Counter(MetricCompileErrors),
		evictions:     reg.Counter(MetricEvictions),
		quotaRejects:  reg.Counter(MetricQuotaRejects),
		resolveMisses: reg.Counter(MetricResolveMisses),
		verifyRuns:    reg.Counter(MetricVerifyRuns),
		entriesGauge:  reg.Gauge(MetricEntries),
		tenants:       map[string]int{},
	}
	r.entries = lru.New(capacity, r.evicted)
	return r
}

// Compile runs the full pipeline — parse, SA diagnostics, optional
// conversion, canonicalization, resource admission, kernel compile,
// sentinel-size verification — and registers the result. Errors are
// *Error values carrying an HTTP status and a stable code. The whole
// pipeline runs under the compile deadline; a source that cannot be
// processed in time is rejected (the pipeline's pre-verification
// stages are all bounded by the static limits, so the deadline is a
// backstop, not the primary defense).
func (r *Registry) Compile(req CompileRequest) (*CompileResponse, error) {
	if r == nil {
		return nil, errf(503, "registry_disabled", "kernelreg: no registry configured")
	}
	r.compiles.Inc()
	resp, err := r.compileTimed(req)
	if err != nil {
		if ce, ok := err.(*Error); ok && ce.Code == CodeTenantQuota {
			r.quotaRejects.Inc()
		}
		r.compileErrors.Inc()
		return nil, err
	}
	return resp, nil
}

func (r *Registry) compileTimed(req CompileRequest) (*CompileResponse, error) {
	if len(req.Source) > MaxSourceBytes {
		return nil, errf(400, CodeSourceTooLarge,
			"kernelreg: source is %d bytes; limit %d", len(req.Source), MaxSourceBytes)
	}
	type outcome struct {
		resp *CompileResponse
		err  error
	}
	ch := make(chan outcome, 1)
	start := time.Now()
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: errf(422, CodeCompileFailed, "kernelreg: compile panicked: %v", p)}
			}
		}()
		resp, err := r.compileSource(req)
		ch <- outcome{resp: resp, err: err}
	}()
	timer := time.NewTimer(r.deadline)
	defer timer.Stop()
	select {
	case o := <-ch:
		// Both channels can be ready at once; the clock, not select's
		// coin, decides whether the compile made its deadline.
		if time.Since(start) <= r.deadline {
			return o.resp, o.err
		}
	case <-timer.C:
	}
	return nil, errf(400, CodeDeadline,
		"kernelreg: compile exceeded the %s deadline", r.deadline)
}

func (r *Registry) compileSource(req CompileRequest) (*CompileResponse, error) {
	p, err := ir.Parse(req.Source)
	if err != nil {
		return nil, errf(400, CodeParseError, "kernelreg: %v", err)
	}
	if cerr := r.checkShape(p); cerr != nil {
		return nil, cerr
	}

	diags := p.CheckSA()
	final := p
	converted := false
	var conv *convert.Result
	if len(ir.Violations(diags)) > 0 {
		if !req.Convert {
			return nil, &Error{
				Status: 422, Code: CodeSAViolations,
				Msg:         fmt.Sprintf("kernelreg: program %s has %d single-assignment violations; resubmit with convert:true or rewrite", p.Name, len(ir.Violations(diags))),
				Diagnostics: WireDiags(diags),
			}
		}
		conv, err = convert.ToSA(p, r.defaultN(req.DefaultN, maxKernelN))
		if err != nil {
			return nil, errf(422, CodeConvertFailed, "kernelreg: %v", err)
		}
		final = conv.Program
		converted = true
		// Conversion introduces arrays; re-admit the grown program.
		if cerr := r.checkShape(final); cerr != nil {
			return nil, cerr
		}
	}

	// The id is a pure function of the canonical rendering, and an id is
	// only ever registered after its content passed every check below,
	// so a re-submission is answered from the registry: no reparse, no
	// resource derivation, no kernel build, no verification runs.
	canon := Canonicalize(final)
	e := r.hit(IDOf(canon))
	if e == nil {
		if e, err = r.admit(canon, req, converted); err != nil {
			return nil, err
		}
	}

	resp := &CompileResponse{
		Kernel:      e.info.ID,
		Name:        e.info.Name,
		Converted:   converted,
		DefaultN:    e.info.DefaultN, // first registration wins
		MaxN:        e.info.MaxN,
		Arity:       e.info.Arity,
		Outputs:     e.k.Outputs,
		Diagnostics: WireDiags(diags),
	}
	if conv != nil {
		resp.Rewrites = wireRewrites(conv.Rewrites)
		resp.ExtraElems = conv.ExtraElems
		resp.Notes = conv.Notes
	}
	return resp, nil
}

// admit is the first-registration half of a compile: it checks that the
// canonical rendering is a parse/render fixed point (or content
// addressing would assign one program several ids), derives the
// resource ceiling, builds the kernel, verifies it on the reference
// engine at the sentinel sizes, and registers it.
func (r *Registry) admit(canon string, req CompileRequest, converted bool) (*entry, error) {
	back, err := ir.Parse(canon)
	if err != nil {
		return nil, errf(422, CodeNotCanonical,
			"kernelreg: canonical rendering does not reparse: %v", err)
	}
	if Canonicalize(back) != canon {
		return nil, errf(422, CodeNotCanonical,
			"kernelreg: rendering is not a parse/render fixed point")
	}

	maxN, merr := deriveMaxN(back)
	if merr != nil {
		return nil, merr
	}
	dn := r.defaultN(req.DefaultN, maxN)

	k, err := back.Kernel(dn)
	if err != nil {
		return nil, errf(422, CodeCompileFailed, "kernelreg: %v", err)
	}
	k.Key = IDOf(canon)
	k.MaxN = maxN
	if converted {
		k.Notes = "compiled from the affine loop IR (SA-converted)"
	}

	for _, vn := range verifySizes(dn, maxN) {
		r.verifyRuns.Inc()
		if verr := runVerify(k, vn); verr != nil {
			return nil, errf(422, CodeVerifyFailed,
				"kernelreg: kernel fails the reference engine at n=%d: %v", vn, verr)
		}
	}
	e, rerr := r.register(k, canon, req.Tenant, dn, maxN)
	if rerr != nil {
		return nil, rerr
	}
	return e, nil
}

// hit returns the entry registered under id, refreshing its LRU
// position and counting a compile hit, or nil.
func (r *Registry) hit(id string) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hitLocked(id)
}

func (r *Registry) hitLocked(id string) *entry {
	e, ok := r.entries.Get(id)
	if !ok {
		return nil
	}
	r.hits.Inc()
	return e
}

// Canonicalize renders a program in its canonical, content-addressable
// source form (the renderer's output plus the END terminator the
// parser requires).
func Canonicalize(p *ir.Program) string { return p.String() + "END\n" }

// defaultN resolves a requested default problem size against a kernel
// ceiling: 0 picks min(64, maxN); anything else clamps into [1, maxN].
func (r *Registry) defaultN(requested, maxN int) int {
	n := requested
	if n <= 0 {
		n = 64
	}
	if n > maxN {
		n = maxN
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (r *Registry) checkShape(p *ir.Program) *Error {
	if len(p.Arrays) > maxArrays {
		return errf(400, CodeProgramTooBig,
			"kernelreg: %d arrays declared; limit %d", len(p.Arrays), maxArrays)
	}
	stmts, depth := shape(p.Body, 0)
	if stmts > maxStatements {
		return errf(400, CodeProgramTooBig,
			"kernelreg: %d assignment statements; limit %d", stmts, maxStatements)
	}
	if depth > maxLoopDepth {
		return errf(400, CodeProgramTooBig,
			"kernelreg: loop nest depth %d; limit %d", depth, maxLoopDepth)
	}
	return nil
}

func shape(stmts []ir.Stmt, base int) (assigns, depth int) {
	depth = base
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Assign:
			assigns++
		case *ir.Loop:
			a, d := shape(st.Body, base+1)
			assigns += a
			if d > depth {
				depth = d
			}
		}
	}
	return assigns, depth
}

// verifySizes picks the sentinel problem sizes a candidate must
// execute cleanly at: the smallest admitted sizes (where boundary
// mistakes live) and the default size callers will actually hit.
func verifySizes(defaultN, maxN int) []int {
	sizes := []int{1, 2, 3, defaultN}
	seen := map[int]bool{}
	out := sizes[:0]
	for _, n := range sizes {
		if n < 1 || n > maxN || seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	return out
}

// runVerify executes the kernel on the strict reference engine,
// converting any panic (an out-of-bounds subscript the affine model
// could not see, e.g. through indirection) into an error.
func runVerify(k *loops.Kernel, n int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	_, err = loops.RunSeq(k, n)
	return err
}

// register installs a compiled kernel under the capacity and tenant
// bounds. Losing a race to register an id is an idempotent hit like any
// other: it refreshes LRU position and is not charged against any
// quota.
func (r *Registry) register(k *loops.Kernel, canon, tenant string, defaultN, maxN int) (*entry, *Error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.hitLocked(k.Key); e != nil {
		return e, nil
	}
	if r.tenants[tenant] >= tenantQuota {
		return nil, errf(429, CodeTenantQuota,
			"kernelreg: tenant %q holds %d kernels; quota %d", tenant, r.tenants[tenant], tenantQuota)
	}
	e := &entry{
		info: Info{
			ID:        k.Key,
			Name:      k.Name,
			Arity:     len(k.Arrays(defaultN)),
			DefaultN:  defaultN,
			MaxN:      maxN,
			Tenant:    tenant,
			CreatedAt: time.Now().UTC(),
		},
		k:      k,
		source: canon,
	}
	r.tenants[tenant]++
	r.entries.Add(k.Key, e)
	r.entriesGauge.Set(int64(r.entries.Len()))
	return e, nil
}

// evicted is the entries cache's eviction callback, run under r.mu
// inside register's Add (which then sets the entries gauge): the least
// recently used kernel left to make room, and its tenant's live count
// drops with it.
func (r *Registry) evicted(_ string, e *entry) {
	if n := r.tenants[e.info.Tenant] - 1; n > 0 {
		r.tenants[e.info.Tenant] = n
	} else {
		delete(r.tenants, e.info.Tenant)
	}
	r.evictions.Inc()
}

// Resolve maps any kernel key — built-in or compiled — to its kernel.
// Unknown compiled ids return an *Error with status 404 and code
// unknown_kernel; unknown built-in keys return loops.ByKey's error
// unchanged (so existing clients see identical bytes).
func (r *Registry) Resolve(key string) (*loops.Kernel, error) {
	if !IsCompiledID(key) {
		return loops.ByKey(key)
	}
	if r == nil {
		return nil, errf(404, CodeUnknownKernel, "unknown compiled kernel %q", key)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries.Get(key)
	if !ok {
		r.resolveMisses.Inc()
		return nil, errf(404, CodeUnknownKernel, "unknown compiled kernel %q (compile it first via POST /v1/compile)", key)
	}
	return e.k, nil
}

// ReplicationRequest reconstructs the compile request that re-creates
// a registered kernel bit-for-bit on another node: the canonical
// source compiled without conversion (it is already SA-clean) at the
// registered default size.
func (r *Registry) ReplicationRequest(id string) (CompileRequest, bool) {
	if r == nil {
		return CompileRequest{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries.Peek(id)
	if !ok {
		return CompileRequest{}, false
	}
	return CompileRequest{
		Source:   e.source,
		DefaultN: e.info.DefaultN,
		Tenant:   e.info.Tenant,
	}, true
}

// List returns the registered kernels, newest first (creation order,
// not LRU order, so listings are stable under read traffic).
func (r *Registry) List() []Info {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Info, 0, r.entries.Len())
	r.entries.Each(func(_ string, e *entry) { out = append(out, e.info) })
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.After(out[j].CreatedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out
}
