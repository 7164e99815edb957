package sim

import (
	"reflect"
	"testing"

	"repro/internal/loops"
	"repro/internal/obs"
)

// TestInstrumentedRunsBitIdentical is the determinism contract of the
// observability layer: attaching a metrics registry must not change a
// single bit of the simulation Result — instrumentation observes, it
// never participates. This is what keeps the pinned bit-identical
// guarantees of the sweep engine intact when metrics are enabled.
func TestInstrumentedRunsBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		key string
		n   int
		npe int
	}{
		{"k1", 1000, 8},
		{"k2", 1024, 16},
		{"k6", 300, 4},
	} {
		k, err := loops.ByKey(tc.key)
		if err != nil {
			t.Fatal(err)
		}
		cfg := PaperConfig(tc.npe, 32)

		plain, err := Run(k, tc.n, cfg)
		if err != nil {
			t.Fatalf("%s uninstrumented: %v", tc.key, err)
		}

		s := NewScratch()
		s.Metrics = obs.NewRegistry()
		instrumented, err := s.Run(k, tc.n, cfg)
		if err != nil {
			t.Fatalf("%s instrumented: %v", tc.key, err)
		}
		if !reflect.DeepEqual(plain, instrumented) {
			t.Errorf("%s: instrumented result differs from uninstrumented\nplain: %+v\ninstr: %+v",
				tc.key, plain, instrumented)
		}

		// A second run through the same scratch reuses its bound
		// context and slabs; it too must be bit-identical.
		again, err := s.Run(k, tc.n, cfg)
		if err != nil {
			t.Fatalf("%s repeat: %v", tc.key, err)
		}
		if !reflect.DeepEqual(plain, again) {
			t.Errorf("%s: repeated instrumented result differs from uninstrumented", tc.key)
		}
	}
}

// TestScratchRecordsMetrics checks the per-run signals: run counts and
// a populated timing histogram.
func TestScratchRecordsMetrics(t *testing.T) {
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := NewScratch()
	s.Metrics = reg
	for i := 0; i < 3; i++ {
		if _, err := s.Run(k, 500, PaperConfig(4, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter(MetricRuns).Value(); got != 3 {
		t.Errorf("%s = %d, want 3", MetricRuns, got)
	}
	if got := reg.Histogram(MetricRunMicros, obs.MicrosBuckets).Count(); got != 3 {
		t.Errorf("%s observations = %d, want 3", MetricRunMicros, got)
	}
}
