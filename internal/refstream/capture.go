package refstream

import (
	"fmt"

	"repro/internal/loops"
	"repro/internal/sim"
)

// Capture executes kernel k at problem size n once on the recording
// engine — validating single assignment and computing the output
// checksums exactly as any direct run would — and returns the reference
// stream. No machine is simulated: the recorded accesses and their
// structural markers are independent of every machine parameter.
func Capture(k *loops.Kernel, n int) (*Stream, error) {
	return CaptureScratch(nil, k, n)
}

// CaptureScratch is Capture against a reusable simulator scratch: the
// execution borrows sc's value slabs, bound context and event
// columns instead of allocating fresh ones, which leaves a capture
// costing one execution of the kernel plus a copy of its events (sweep
// workers and the serving engine hold a scratch per worker for exactly
// this). A nil sc runs with a private one. The returned Stream is
// identical either way and shares nothing with sc.
func CaptureScratch(sc *sim.Scratch, k *loops.Kernel, n int) (st *Stream, err error) {
	if k == nil {
		return nil, fmt.Errorf("refstream: nil kernel")
	}
	// A capture executes the kernel body. Built-ins are trusted, but
	// registry-compiled kernels can reach out-of-bounds subscripts
	// through data-dependent indirection that neither the static
	// admission model nor sentinel-size verification exercised; a
	// panic here must fail the one request, not the process.
	defer func() {
		if p := recover(); p != nil {
			st, err = nil, fmt.Errorf("refstream: capturing %s/n=%d: kernel panicked: %v", k.Key, k.ClampN(n), p)
		}
	}()
	n = k.ClampN(n)
	if sc == nil {
		sc = sim.NewScratch()
	}
	rec, err := sc.Record(k, n)
	if err != nil {
		return nil, fmt.Errorf("refstream: capturing %s/n=%d: %w", k.Key, n, err)
	}
	// The columns are the scratch's; the stream keeps exact-size copies
	// (make immediately followed by copy skips zeroing them first).
	heads := make([]uint32, len(rec.Heads))
	copy(heads, rec.Heads)
	lins := make([]int32, len(rec.Lins))
	copy(lins, rec.Lins)
	return &Stream{
		Kernel: k, N: n,
		ArrayLens: rec.ArrayLens,
		Checksums: rec.Checksums,
		events:    len(heads),
		dheads:    heads,
		dlins:     lins,
	}, nil
}
