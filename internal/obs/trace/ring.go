package trace

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// RingEntries is how many traces a Ring holds.
const RingEntries = 256

// Ring is a bounded buffer of recent traces: the storage behind
// GET /debug/trace. Adding the N+1th trace overwrites the oldest, so
// memory is fixed at capacity × the per-trace bound. All methods are
// safe on a nil *Ring (no-ops / empty results) and for concurrent use.
type Ring struct {
	mu  sync.Mutex
	buf []*Trace
	pos int // next write slot
	n   int // live entries
}

// NewRing returns an empty ring holding up to RingEntries traces.
func NewRing() *Ring { return &Ring{buf: make([]*Trace, RingEntries)} }

// Add records t, evicting the oldest entry when full.
func (r *Ring) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.pos] = t
	r.pos = (r.pos + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Get returns the newest trace with the given ID, or nil.
func (r *Ring) Get(id string) *Trace {
	if r == nil || id == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.n; i++ {
		t := r.buf[(r.pos-1-i+len(r.buf))%len(r.buf)]
		if t != nil && t.id == id {
			return t
		}
	}
	return nil
}

// Recent returns up to max traces, newest first (max <= 0 means all).
func (r *Ring) Recent(max int) []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.n
	if max > 0 && max < n {
		n = max
	}
	out := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(r.pos-1-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Len returns the number of stored traces.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// summary is one row of the GET /debug/trace listing.
type summary struct {
	ID     string    `json:"id"`
	Route  string    `json:"route"`
	Status int       `json:"status"`
	Start  time.Time `json:"start"`
	DurUS  int64     `json:"dur_us"`
	Spans  int       `json:"spans"`
	Done   bool      `json:"done"`
}

// ServeHTTP serves GET /debug/trace from the ring: without parameters a
// newest-first summary listing (bounded by ?n=, default 32); with ?id=
// the full span tree of one retained trace. Errors carry the serving
// layer's {"error": ...} body.
func (r *Ring) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	var v any
	if id := req.URL.Query().Get("id"); id != "" {
		t := r.Get(id)
		if t == nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no trace %q in the ring (%d held, newest win)", id, r.Len()))
			return
		}
		v = t.Snapshot()
	} else {
		n := 32
		if s := req.URL.Query().Get("n"); s != "" {
			if parsed, err := strconv.Atoi(s); err == nil && parsed > 0 {
				n = parsed
			}
		}
		list := r.Recent(n)
		rows := make([]summary, 0, len(list))
		for _, t := range list {
			o := t.Snapshot()
			rows = append(rows, summary{ID: o.ID, Route: o.Route, Status: o.Status, Start: o.Start, DurUS: o.DurUS, Spans: len(o.Spans), Done: o.Done})
		}
		v = rows
	}
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	body, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	writeJSON(w, status, body)
}
