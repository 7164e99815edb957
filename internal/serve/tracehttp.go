package serve

// tracehttp.go — the request-scoped observability layer of the HTTP
// front end: X-Request-ID acceptance/generation, the per-request
// obs/trace.Trace riding the request context, the bounded ring of
// recent traces behind GET /debug/trace (trace.Ring serves it), and
// the structured JSON access log. Everything here rides headers and side channels only —
// response bodies are produced by the engine and stay byte-identical
// whether or not tracing observes the request (pinned by
// trace_test.go).

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs/trace"
)

// statusWriter captures the status code written by a handler so the
// access log and trace can record it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// traced wraps a request handler with the per-request trace lifecycle:
// accept the caller's X-Request-ID when it passes trace.SanitizeID
// (otherwise generate one), echo it on the response, run the handler
// with the trace on the request context, then finish the trace, retain
// it in the ring and emit one access-log line.
func (s *Server) traced(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := trace.SanitizeID(r.Header.Get("X-Request-ID"))
		if id == "" {
			id = trace.NewID()
		}
		tr := trace.New(id, route)
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(trace.NewContext(r.Context(), tr)))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		tr.Finish(status)
		s.ring.Add(tr)
		s.alog.log(tr.Snapshot())
	}
}

// accessLogger serializes structured access-log lines onto one writer.
type accessLogger struct {
	mu sync.Mutex
	w  io.Writer
}

func newAccessLogger(w io.Writer) *accessLogger {
	if w == nil {
		w = os.Stderr
	}
	return &accessLogger{w: w}
}

// accessLine is one access-log record: machine-parseable JSON, one
// line per request, written to the configured writer (os.Stderr by
// default).
type accessLine struct {
	Time         string           `json:"ts"`
	ID           string           `json:"id"`
	Route        string           `json:"route"`
	Status       int              `json:"status"`
	DurMS        float64          `json:"dur_ms"`
	Counts       map[string]int64 `json:"counts,omitempty"`
	StagesUS     map[string]int64 `json:"stages_us,omitempty"`
	DroppedSpans int              `json:"dropped_spans,omitempty"`
}

func (l *accessLogger) log(o trace.Out) {
	if l.w == io.Discard {
		return
	}
	line, err := json.Marshal(accessLine{
		Time:         o.Start.UTC().Format(time.RFC3339Nano),
		ID:           o.ID,
		Route:        o.Route,
		Status:       o.Status,
		DurMS:        float64(o.DurUS) / 1000,
		Counts:       o.Counts,
		StagesUS:     o.StageTotals(),
		DroppedSpans: o.Dropped,
	})
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = l.w.Write(append(line, '\n'))
}

// buildDetails is the build/version block of the GET /healthz body,
// sourced from runtime/debug.ReadBuildInfo. The Prometheus-side
// counterpart is the constant build.info gauge.
type buildDetails struct {
	Go       string `json:"go"`
	Module   string `json:"module,omitempty"`
	Version  string `json:"version,omitempty"`
	Revision string `json:"revision,omitempty"`
	Modified bool   `json:"modified,omitempty"`
}

func readBuildDetails() buildDetails {
	out := buildDetails{Go: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out.Module = bi.Main.Path
	out.Version = bi.Main.Version
	for _, st := range bi.Settings {
		switch st.Key {
		case "vcs.revision":
			rev := st.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
			out.Revision = rev
		case "vcs.modified":
			out.Modified = st.Value == "true"
		}
	}
	return out
}

// healthBody renders the /healthz payload once at startup: liveness
// plus build details. Always contains "status":"ok" — smoke checks
// grep for it.
func healthBody() []byte {
	body, err := json.Marshal(struct {
		Status string       `json:"status"`
		Build  buildDetails `json:"build"`
	}{Status: "ok", Build: readBuildDetails()})
	if err != nil {
		return []byte(`{"status":"ok"}`)
	}
	return body
}
