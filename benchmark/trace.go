package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// trace.go — benchmark-side spans. The program under test is not
// instrumented by this benchmark: a span wraps one call into an
// exported function (or one client request), recorded in memory and
// written out when the run ends.

// span is one timed call. Parent is the id of the span that caused it
// (0 = none); spans of one op share Op.
type span struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	Parent  int     `json:"parent,omitempty"`
	Op      int     `json:"op"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// maxSpans bounds the in-memory trace; later spans are counted, not kept.
const maxSpans = 200_000

// tracer records spans. A nil *tracer is tracing switched off: every
// method is a no-op, so measured code paths are identical either way.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 when tracing is off or the
// trace is full).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Op: op, StartUS: us(now)})
	return id
}

// end closes span id and returns its duration in microseconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndUS = us(now)
	return s.EndUS - s.StartUS
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// selfTimes sums, per span name, each span's duration minus the part
// its direct children cover.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndUS - s.StartUS
		}
	}
	for _, s := range t.spans {
		out[s.Name] += s.EndUS - s.StartUS - child[s.ID]
	}
	return out
}

// write stores the trace as JSON at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(struct {
		Dropped int                `json:"dropped"`
		SelfUS  map[string]float64 `json:"self_us"`
		Spans   []span             `json:"spans"`
	}{t.dropped, self, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
