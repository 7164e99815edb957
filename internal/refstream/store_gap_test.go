package refstream_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/refstream"
	"repro/internal/refstream/store"
)

// TestStoreCountsGappedTerms: a store file holding a stream whose
// reduction terms skip an element, named for its own bytes so only
// decoding can reject it, is left out of the index and counted under
// store.load_errors.
func TestStoreCountsGappedTerms(t *testing.T) {
	enc := refstream.GappedTermsEncoding(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, refstream.ContentAddress(enc)+".rsc"), enc, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := store.Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("indexed %d streams, want 0", s.Len())
	}
	if got := reg.Counter(store.MetricLoadErrors).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", store.MetricLoadErrors, got)
	}
}
