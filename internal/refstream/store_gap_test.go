package refstream_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/refstream"
	"repro/internal/refstream/store"
)

// TestStoreCountsGappedTerms: a store file holding a stream whose
// reduction terms skip an element, under its key's name and with a
// matching digest so only decoding can reject it, is missed by Load
// and counted under store.load_errors.
func TestStoreCountsGappedTerms(t *testing.T) {
	enc := refstream.GappedTermsEncoding(t)
	k, err := loops.ByKey("k3")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc)
	dir := t.TempDir()
	name := fmt.Sprintf("%s-%d.rsc", k.Key, k.ClampN(0))
	if err := os.WriteFile(filepath.Join(dir, name), append(enc, sum[:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := store.Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(k, 0); ok {
		t.Fatal("a stream with gapped reduction terms was served")
	}
	if got := reg.Counter(store.MetricLoadErrors).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", store.MetricLoadErrors, got)
	}
}
