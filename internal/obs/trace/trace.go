// Package trace is the request-scoped tracing half of the
// observability layer: a low-overhead, allocation-bounded span tracer
// for the serving stack. A Trace is created per request (accepted or
// generated X-Request-ID), carried through the execution path on the
// context, and populated with parent/child spans — wall-clock stage
// timings in the HTTP layer and engine (admission wait, cache lookup,
// singleflight wait, capture, replay, encode), plus logical-unit
// events (configs per batch pass, stream events replayed) whose values
// are counts rather than durations.
//
// The same two properties that make the metrics registry safe to leave
// on (package obs) hold here:
//
//   - Nil safety: every method on a nil *Trace, *Ring or a zero
//     SpanRef is a no-op (SpanRef.End still returns the measured wall
//     duration, so instrumentation can feed histograms with or without
//     a live trace). Untraced code paths pay one nil check.
//   - Observation, not participation: a trace records what the engines
//     did; it is never consulted by them. The paper's bit-identical
//     classification guarantee is what makes deep tracing safe — the
//     serving tests pin that traced and untraced response bodies are
//     byte-identical.
//
// Allocation is bounded by construction: a Trace pre-allocates room
// for MaxSpans spans and MaxCounts counters at New and never grows
// either; excess spans are counted in Dropped instead of stored. A
// Ring holds the last N traces for GET /debug/trace. See
// docs/OBSERVABILITY.md.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// MaxSpans bounds the spans one Trace stores; later spans increment
// Dropped instead of allocating.
const MaxSpans = 64

// MaxCounts bounds the distinct named counters one Trace stores.
const MaxCounts = 8

// MaxIDLen bounds an accepted X-Request-ID; longer (or malformed) IDs
// are replaced by a generated one.
const MaxIDLen = 128

// Span is one recorded operation inside a trace. For wall-clock spans
// (Unit == "") Value is the duration in microseconds and StartUS the
// offset from the trace's start; for logical events Unit names the
// quantity (e.g. "configs", "events") and Value is the count.
type Span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index into the span list; -1 = root
	StartUS int64  `json:"start_us"`
	Value   int64  `json:"value"`
	Unit    string `json:"unit,omitempty"`
}

type kv struct {
	name string
	v    int64
}

// Trace is one request's recorded execution. Create it with New; all
// methods are safe on a nil receiver and for concurrent use (the
// worker executing a point and the request goroutine waiting on it may
// both add spans).
type Trace struct {
	id    string
	route string
	start time.Time

	mu      sync.Mutex
	status  int
	durUS   int64
	done    bool
	spans   []Span
	dropped int
	counts  []kv
}

// New starts a trace for the given request ID and route. The span and
// counter storage is allocated once, here.
func New(id, route string) *Trace {
	return &Trace{
		id:     id,
		route:  route,
		start:  time.Now(),
		spans:  make([]Span, 0, MaxSpans),
		counts: make([]kv, 0, MaxCounts),
	}
}

// SpanRef identifies a span under construction. The zero value (and
// any ref from a nil trace) is inert except that End still measures:
// it carries its own start time, so callers can time a stage into a
// histogram whether or not a trace is attached.
type SpanRef struct {
	t     *Trace
	idx   int
	start time.Time
}

// Start opens a root span. End it with SpanRef.End.
func (t *Trace) Start(name string) SpanRef {
	return t.StartChild(SpanRef{idx: -1}, name)
}

// StartChild opens a span parented under parent (a ref returned by
// Start/StartChild on the same trace; a zero parent means root).
func (t *Trace) StartChild(parent SpanRef, name string) SpanRef {
	sr := SpanRef{t: t, idx: -1, start: time.Now()}
	if t == nil {
		return sr
	}
	pidx := -1
	if parent.t == t {
		pidx = parent.idx
	}
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		sr.idx = len(t.spans)
		t.spans = append(t.spans, Span{
			Name:    name,
			Parent:  pidx,
			StartUS: sr.start.Sub(t.start).Microseconds(),
			Value:   -1, // open
		})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return sr
}

// End closes the span and returns its wall-clock duration. It returns
// the measured duration even when the span was dropped or the trace is
// nil, so stage histograms see every observation.
func (sr SpanRef) End() time.Duration {
	d := time.Since(sr.start)
	if sr.t == nil || sr.idx < 0 {
		return d
	}
	sr.t.mu.Lock()
	sr.t.spans[sr.idx].Value = d.Microseconds()
	sr.t.mu.Unlock()
	return d
}

// Event records a completed logical span: value in the given unit
// (e.g. 24 "configs" classified by one batch pass). An empty unit
// means microseconds, for pre-measured durations.
func (t *Trace) Event(parent SpanRef, name string, value int64, unit string) {
	if t == nil {
		return
	}
	pidx := -1
	if parent.t == t {
		pidx = parent.idx
	}
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, Span{
			Name:    name,
			Parent:  pidx,
			StartUS: time.Since(t.start).Microseconds(),
			Value:   value,
			Unit:    unit,
		})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Count adds delta to the named per-request counter (cache hits,
// dedup joins, …). At most MaxCounts distinct names are kept; more are
// dropped silently — counters are annotations, not accounting.
func (t *Trace) Count(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.counts {
		if t.counts[i].name == name {
			t.counts[i].v += delta
			return
		}
	}
	if len(t.counts) < cap(t.counts) {
		t.counts = append(t.counts, kv{name, delta})
	}
}

// Finish seals the trace with the response status and total duration.
// Later span operations still record (a worker may outlive the
// request), but Done is set from here on.
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.status = status
	t.durUS = time.Since(t.start).Microseconds()
	t.done = true
	t.mu.Unlock()
}

// Out is the JSON shape of a trace, returned by Snapshot and served on
// GET /debug/trace.
type Out struct {
	ID      string           `json:"id"`
	Route   string           `json:"route"`
	Status  int              `json:"status"`
	Start   time.Time        `json:"start"`
	DurUS   int64            `json:"dur_us"`
	Done    bool             `json:"done"`
	Counts  map[string]int64 `json:"counts,omitempty"`
	Spans   []Span           `json:"spans,omitempty"`
	Dropped int              `json:"dropped_spans,omitempty"`
}

// Snapshot copies the trace's current state (an in-flight trace is
// legal to snapshot; open spans report Value -1).
func (t *Trace) Snapshot() Out {
	if t == nil {
		return Out{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	o := Out{
		ID:      t.id,
		Route:   t.route,
		Status:  t.status,
		Start:   t.start,
		DurUS:   t.durUS,
		Done:    t.done,
		Spans:   append([]Span(nil), t.spans...),
		Dropped: t.dropped,
	}
	if len(t.counts) > 0 {
		o.Counts = make(map[string]int64, len(t.counts))
		for _, c := range t.counts {
			o.Counts[c.name] = c.v
		}
	}
	return o
}

// StageTotals sums the wall-clock spans by name (logical-unit events
// excluded): the per-stage microsecond totals an access-log line
// reports. Open spans are skipped.
func (o Out) StageTotals() map[string]int64 {
	var m map[string]int64
	for _, s := range o.Spans {
		if s.Unit != "" || s.Value < 0 {
			continue
		}
		if m == nil {
			m = map[string]int64{}
		}
		m[s.Name] += s.Value
	}
	return m
}

type ctxKey struct{}

// NewContext returns ctx carrying t.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil — and every
// method on that nil is a no-op, so callees never guard.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// idNonce distinguishes processes; idSeq distinguishes requests within
// one. Together they make generated IDs unique without coordination.
var (
	idNonce = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	idSeq atomic.Uint64
)

// NewID generates a process-unique request ID.
func NewID() string {
	return fmt.Sprintf("%s-%06d", idNonce, idSeq.Add(1))
}

// SanitizeID validates a client-supplied request ID: at most MaxIDLen
// characters of [A-Za-z0-9._-]. Anything else returns "", telling the
// caller to generate one instead — IDs land in log lines and URLs, so
// the charset is deliberately conservative.
func SanitizeID(s string) string {
	if s == "" || len(s) > MaxIDLen {
		return ""
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return s
}
