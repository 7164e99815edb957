package serve

// compile.go — POST /v1/compile: the HTTP face of the kernel registry
// (internal/kernelreg). Source goes in; SA diagnostics and a
// content-addressed kernel id come out, immediately usable in
// /v1/classify and /v1/sweep. The handler follows the same production
// path as the other POST routes — traced, admission-controlled,
// structured errors, stage histogram (serve.stage.compile_us) — but
// the pipeline itself (limits, deadline, verification, quotas) lives
// in the registry so the router and cmd/saconv share it byte-for-byte.

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/kernelreg"
	"repro/internal/obs/trace"
)

// writeStructured writes an error body carrying a structured code (and
// diagnostics, for SA rejections). Falls back to the plain body for
// errors that are not *kernelreg.Error, so pre-existing 400 bytes are
// unchanged.
func writeStructured(w http.ResponseWriter, fallbackStatus int, err error) {
	var ke *kernelreg.Error
	if !errors.As(err, &ke) {
		writeError(w, fallbackStatus, err)
		return
	}
	if ke.Status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	body, _ := json.Marshal(ErrorBody{Error: ke.Msg, Code: ke.Code, Diagnostics: ke.Diagnostics})
	writeJSON(w, ke.Status, body)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.cCompile.Inc()
	start := time.Now()
	defer func() { s.hCompileReq.Observe(time.Since(start).Microseconds()) }()
	tr := trace.FromContext(r.Context())

	r.Body = http.MaxBytesReader(w, r.Body, s.BodyLimit(r.URL.Path))

	sp := tr.Start("decode")
	var req kernelreg.CompileRequest
	err := decode(r, &req)
	s.eng.hDecode.Observe(sp.End().Microseconds())
	if err != nil {
		s.cBad.Inc()
		writeError(w, badStatus(err), err)
		return
	}

	asp := tr.Start("admit_wait")
	release, aerr := s.eng.admit()
	s.eng.hAdmit.Observe(asp.End().Microseconds())
	if aerr != nil {
		rejectErr(w, aerr)
		return
	}
	defer release()

	csp := tr.Start("compile")
	resp, cerr := s.eng.Registry().Compile(req)
	s.eng.hCompile.Observe(csp.End().Microseconds())
	if cerr != nil {
		s.cBad.Inc()
		writeStructured(w, http.StatusBadRequest, cerr)
		return
	}
	body, err := json.Marshal(resp)
	if err != nil {
		s.finishErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// CompiledKernelsOut is the body of GET /v1/kernels?compiled=1: the
// registry-resident compiled kernels, newest first, plus the id scheme
// their ids follow.
type CompiledKernelsOut struct {
	// IDScheme documents how compiled ids are formed.
	IDScheme string           `json:"id_scheme"`
	Count    int              `json:"count"`
	Kernels  []kernelreg.Info `json:"kernels"`
}

// IDSchemeDoc is the one-line id-scheme documentation served in
// compiled-kernel listings.
const IDSchemeDoc = `"u:" + hex SHA-256 of the canonical IR rendering (identical programs share one id)`

func (s *Server) handleCompiledKernels(w http.ResponseWriter) {
	infos := s.eng.Registry().List()
	if infos == nil {
		infos = []kernelreg.Info{}
	}
	body, err := json.Marshal(&CompiledKernelsOut{
		IDScheme: IDSchemeDoc,
		Count:    len(infos),
		Kernels:  infos,
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}
