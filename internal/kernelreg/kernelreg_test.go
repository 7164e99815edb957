package kernelreg

// kernelreg_test.go — the registry contract behind POST /v1/compile:
// content addressing is a pure function of the program (stable across
// registries and recompiles), the convert opt-in gates SA-violating
// source, pathological inputs land in the structured rejection table,
// and the two boundedness mechanisms (LRU capacity, per-tenant quota)
// evict and reject exactly as documented.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/obs"
)

// src builds a tiny SA-clean program whose content varies with coef,
// so tests can mint distinct ids on demand.
func src(name string, coef int) string {
	return fmt.Sprintf(`PROGRAM %s
  ARRAY A(n+1) OUTPUT
  ARRAY B(n+1) INPUT
  DO i = 1, n
    A(i) = %d*B(i)
  END DO
END
`, name, coef)
}

// sampleSrc renders a built-in sample in the canonical source syntax.
func sampleSrc(t *testing.T, name string) string {
	t.Helper()
	for _, p := range ir.Samples() {
		if p.Name == name {
			return p.String() + "END\n"
		}
	}
	t.Fatalf("no sample %q", name)
	return ""
}

func TestIDStableAcrossRegistries(t *testing.T) {
	source := sampleSrc(t, "matched")
	reg1 := New(Limits{}, obs.NewRegistry())
	reg2 := New(Limits{}, obs.NewRegistry())
	r1, err := reg1.Compile(CompileRequest{Source: source})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := reg2.Compile(CompileRequest{Source: source})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Kernel != r2.Kernel {
		t.Fatalf("id differs across registries: %q vs %q", r1.Kernel, r2.Kernel)
	}
	if !IsCompiledID(r1.Kernel) {
		t.Fatalf("id %q lacks the %q prefix", r1.Kernel, IDPrefix)
	}
	if want := IDOf(Canonicalize(mustParse(t, source))); r1.Kernel != want {
		t.Fatalf("id %q is not the content address %q", r1.Kernel, want)
	}
}

func mustParse(t *testing.T, source string) *ir.Program {
	t.Helper()
	p, err := ir.Parse(source)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRecompileIsIdempotentHit(t *testing.T) {
	mreg := obs.NewRegistry()
	reg := New(Limits{}, mreg)
	source := sampleSrc(t, "hydro")
	r1, err := reg.Compile(CompileRequest{Source: source, DefaultN: 48})
	if err != nil {
		t.Fatal(err)
	}
	verified := mreg.Snapshot().Counters[MetricVerifyRuns]
	if verified == 0 {
		t.Fatalf("%s = 0 after a first registration", MetricVerifyRuns)
	}
	// The second compile asks for a different default_n: first wins.
	r2, err := reg.Compile(CompileRequest{Source: source, DefaultN: 96})
	if err != nil {
		t.Fatal(err)
	}
	// A hit is answered from the registry — the content was verified
	// when it was registered — with the bytes of the first answer.
	if got := mreg.Snapshot().Counters[MetricVerifyRuns]; got != verified {
		t.Fatalf("recompile ran %d verification(s); a hit must run none", got-verified)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("recompile body differs:\n%s\n%s", b1, b2)
	}
	if r1.Kernel != r2.Kernel || r2.DefaultN != 48 {
		t.Fatalf("recompile: id %q->%q default_n %d (want first-wins 48)", r1.Kernel, r2.Kernel, r2.DefaultN)
	}
	if len(reg.List()) != 1 {
		t.Fatalf("registry holds %d entries after a recompile, want 1", len(reg.List()))
	}
	snap := mreg.Snapshot()
	if snap.Counters[MetricCompileHits] != 1 {
		t.Fatalf("%s = %d, want 1", MetricCompileHits, snap.Counters[MetricCompileHits])
	}
}

func TestConvertOptIn(t *testing.T) {
	reg := New(Limits{}, obs.NewRegistry())
	source := sampleSrc(t, "inplace")

	_, err := reg.Compile(CompileRequest{Source: source})
	var ke *Error
	if !errors.As(err, &ke) || ke.Code != CodeSAViolations || ke.Status != 422 {
		t.Fatalf("violating source without convert: %v, want 422 %s", err, CodeSAViolations)
	}
	if len(ke.Diagnostics) == 0 {
		t.Fatal("sa_violations error carries no diagnostics")
	}

	resp, err := reg.Compile(CompileRequest{Source: source, Convert: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Converted || len(resp.Rewrites) == 0 || len(resp.Diagnostics) == 0 {
		t.Fatalf("convert path: converted=%v rewrites=%d diagnostics=%d",
			resp.Converted, len(resp.Rewrites), len(resp.Diagnostics))
	}
	if !strings.HasSuffix(resp.Name, "_sa") {
		t.Fatalf("converted program kept name %q, want _sa suffix", resp.Name)
	}
}

// TestConvertFlagNoOpOnCleanSource pins the content-address invariant:
// convert applies only when violations exist, so a clean program hashes
// to one id with or without the flag.
func TestConvertFlagNoOpOnCleanSource(t *testing.T) {
	reg := New(Limits{}, obs.NewRegistry())
	source := sampleSrc(t, "cyclic")
	plain, err := reg.Compile(CompileRequest{Source: source})
	if err != nil {
		t.Fatal(err)
	}
	flagged, err := reg.Compile(CompileRequest{Source: source, Convert: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Kernel != flagged.Kernel || flagged.Converted {
		t.Fatalf("clean source with convert: id %q vs %q, converted=%v",
			plain.Kernel, flagged.Kernel, flagged.Converted)
	}
}

// TestRejectionTable drives every structured 4xx the compile pipeline
// can produce, at the registry's fixed limits, and checks status +
// stable code.
func TestRejectionTable(t *testing.T) {
	var deep, many strings.Builder
	deep.WriteString("PROGRAM deep\n  ARRAY A(n+1) OUTPUT\n  ARRAY B(n+1) INPUT\n")
	for d := 0; d <= maxLoopDepth; d++ {
		fmt.Fprintf(&deep, "  DO i%d = 1, n\n", d)
	}
	deep.WriteString("    A(i0) = B(i0)\n")
	for d := 0; d <= maxLoopDepth; d++ {
		deep.WriteString("  END DO\n")
	}
	deep.WriteString("END\n")
	many.WriteString("PROGRAM many\n  ARRAY A(n+1) OUTPUT\n  ARRAY B(n+1) INPUT\n  DO i = 1, n\n")
	for j := 0; j <= maxStatements; j++ {
		many.WriteString("    A(i) = B(i)\n")
	}
	many.WriteString("  END DO\nEND\n")
	// 20M cells of 8 bytes: over maxArrayBytes at every n.
	pricey := "PROGRAM pricey\n  ARRAY A(20000000) OUTPUT\n  ARRAY B(n+1) INPUT\n" +
		"  DO i = 1, n\n    A(i) = B(i)\n  END DO\nEND\n"
	// A 2048 x 2048 nest: about 8.4M executed terms at n=1, over maxOps,
	// on a 67 MB footprint that is under maxArrayBytes.
	busy := "PROGRAM busy\n  ARRAY A(2049,2049) OUTPUT\n  ARRAY B(2049,2049) INPUT\n" +
		"  DO i = 1, 2048\n    DO j = 1, 2048\n      A(i,j) = B(i,j)\n    END DO\n  END DO\nEND\n"
	// Each too_expensive case must fail its own budget and fit the
	// other, so both comparisons in underBudget are reached.
	for _, c := range []struct {
		source           string
		overOps, overMem bool
	}{{busy, true, false}, {pricey, false, true}} {
		p, err := ir.Parse(c.source)
		if err != nil {
			t.Fatal(err)
		}
		ops, err := opsAt(p.Body, 1)
		if err != nil {
			t.Fatal(err)
		}
		if mem := bytesAt(p, 1); (ops > maxOps) != c.overOps || (mem > maxArrayBytes) != c.overMem {
			t.Fatalf("%s at n=1: %d ops, %d bytes; want over ops %v, over bytes %v",
				strings.SplitN(c.source, "\n", 2)[0], ops, mem, c.overOps, c.overMem)
		}
	}
	big := src("big", 1) + strings.Repeat("# pad\n", MaxSourceBytes/len("# pad\n"))
	cases := []struct {
		name   string
		req    CompileRequest
		status int
		code   string
	}{
		{"source_too_large", CompileRequest{Source: big}, 400, CodeSourceTooLarge},
		{"parse_error", CompileRequest{Source: "PROGRAM broken\n  NOT A STATEMENT\nEND\n"}, 400, CodeParseError},
		{"program_too_large_stmts", CompileRequest{Source: many.String()}, 400, CodeProgramTooBig},
		{"program_too_large_depth", CompileRequest{Source: deep.String()}, 400, CodeProgramTooBig},
		{"sa_violations", CompileRequest{Source: sampleSrc(t, "gaussseidel")}, 422, CodeSAViolations},
		{"too_expensive_bytes", CompileRequest{Source: pricey}, 400, CodeTooExpensive},
		{"too_expensive", CompileRequest{Source: busy}, 400, CodeTooExpensive},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := New(Limits{}, obs.NewRegistry())
			_, err := reg.Compile(tc.req)
			var ke *Error
			if !errors.As(err, &ke) {
				t.Fatalf("got %v, want *kernelreg.Error", err)
			}
			if ke.Status != tc.status || ke.Code != tc.code {
				t.Fatalf("got %d %s (%s), want %d %s", ke.Status, ke.Code, ke.Msg, tc.status, tc.code)
			}
		})
	}
}

func TestResolveUnknownCompiledID(t *testing.T) {
	reg := New(Limits{}, obs.NewRegistry())
	_, err := reg.Resolve("u:deadbeef")
	var ke *Error
	if !errors.As(err, &ke) || ke.Status != 404 || ke.Code != CodeUnknownKernel {
		t.Fatalf("unknown id: %v, want 404 %s", err, CodeUnknownKernel)
	}
	// Built-in keys pass straight through to the loops menu.
	if _, err := reg.Resolve("k1"); err != nil {
		t.Fatalf("built-in k1: %v", err)
	}
}

// TestEvictionUnderCapacity fills the registry past its capacity,
// spreading the compiles over enough tenants that no quota is reached:
// the oldest ids are evicted, one per compile past capacity.
func TestEvictionUnderCapacity(t *testing.T) {
	mreg := obs.NewRegistry()
	reg := New(Limits{}, mreg)
	const extra = 44
	tenants := (capacity+extra)/tenantQuota + 1
	ids := make([]string, capacity+extra)
	for i := range ids {
		resp, err := reg.Compile(CompileRequest{Source: src("p", i+2), Tenant: fmt.Sprint("t", i%tenants)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = resp.Kernel
	}
	if len(reg.List()) != capacity {
		t.Fatalf("registry holds %d entries, want capacity %d", len(reg.List()), capacity)
	}
	for i, id := range ids {
		_, err := reg.Resolve(id)
		if evicted := i < extra; evicted != (err != nil) {
			t.Fatalf("id %d (%q): resolve error %v, want evicted=%v", i, id, err, evicted)
		}
	}
	if got := mreg.Snapshot().Counters[MetricEvictions]; got != extra {
		t.Fatalf("%s = %d, want %d", MetricEvictions, got, extra)
	}
}

// TestTenantQuota fills one tenant's quota: its next new kernel is
// rejected, a recompile of a live one is a hit, and another tenant
// still has room.
func TestTenantQuota(t *testing.T) {
	mreg := obs.NewRegistry()
	reg := New(Limits{}, mreg)
	var first *CompileResponse
	for i := 0; i < tenantQuota; i++ {
		resp, err := reg.Compile(CompileRequest{Source: src("q", i+2), Tenant: "acme"})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = resp
		}
	}
	_, err := reg.Compile(CompileRequest{Source: src("q", tenantQuota+2), Tenant: "acme"})
	var ke *Error
	if !errors.As(err, &ke) || ke.Status != 429 || ke.Code != CodeTenantQuota {
		t.Fatalf("over-quota compile: %v, want 429 %s", err, CodeTenantQuota)
	}
	// Idempotent recompile of a live kernel is a hit, not a quota charge.
	again, err := reg.Compile(CompileRequest{Source: src("q", 2), Tenant: "acme"})
	if err != nil {
		t.Fatalf("recompile of live kernel rejected: %v", err)
	}
	if again.Kernel != first.Kernel {
		t.Fatalf("recompile changed id: %q vs %q", again.Kernel, first.Kernel)
	}
	// A different tenant still has room.
	if _, err := reg.Compile(CompileRequest{Source: src("q", tenantQuota+2), Tenant: "other"}); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	if got := mreg.Snapshot().Counters[MetricQuotaRejects]; got != 1 {
		t.Fatalf("%s = %d, want 1", MetricQuotaRejects, got)
	}
}

func TestListNewestFirst(t *testing.T) {
	reg := New(Limits{}, obs.NewRegistry())
	var ids []string
	for i := 0; i < 3; i++ {
		resp, err := reg.Compile(CompileRequest{Source: src("l", i+2)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.Kernel)
		time.Sleep(2 * time.Millisecond) // distinct CreatedAt stamps
	}
	infos := reg.List()
	if len(infos) != 3 {
		t.Fatalf("List returned %d entries, want 3", len(infos))
	}
	for i, info := range infos {
		if want := ids[len(ids)-1-i]; info.ID != want {
			t.Fatalf("List[%d] = %s, want newest-first %s", i, info.ID, want)
		}
		if info.Arity == 0 || info.DefaultN == 0 || info.MaxN == 0 {
			t.Fatalf("List[%d] missing metadata: %+v", i, info)
		}
	}
}

func TestReplicationRequestRoundTrip(t *testing.T) {
	reg := New(Limits{}, obs.NewRegistry())
	resp, err := reg.Compile(CompileRequest{Source: sampleSrc(t, "inplace"), Convert: true, DefaultN: 40, Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := reg.ReplicationRequest(resp.Kernel)
	if !ok {
		t.Fatal("no replication request for a live kernel")
	}
	if rep.Convert {
		t.Fatal("replication request sets convert: the stored source is already SA-clean")
	}
	other := New(Limits{}, obs.NewRegistry())
	got, err := other.Compile(rep)
	if err != nil {
		t.Fatalf("replication compile: %v", err)
	}
	if got.Kernel != resp.Kernel || got.DefaultN != resp.DefaultN {
		t.Fatalf("replication drifted: id %q->%q default_n %d->%d",
			resp.Kernel, got.Kernel, resp.DefaultN, got.DefaultN)
	}
}

func TestCompileDeadline(t *testing.T) {
	// A deadline so tight even a tiny program cannot finish: the
	// pipeline must answer 400 compile_deadline, not hang.
	reg := New(Limits{}, obs.NewRegistry())
	reg.deadline = time.Nanosecond
	_, err := reg.Compile(CompileRequest{Source: src("slow", 2)})
	var ke *Error
	if !errors.As(err, &ke) || ke.Code != CodeDeadline {
		t.Fatalf("got %v, want %s", err, CodeDeadline)
	}
}
