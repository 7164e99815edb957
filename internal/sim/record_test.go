package sim

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/loops"
	"repro/internal/obs"
)

// TestRecordAndRunShareAScratch interleaves the two engines on one
// Scratch — the sweep worker's life: record a (kernel, n), run it
// directly for a configuration replay does not cover, move on — and
// requires every Result to match a fresh Run and every Recording a
// fresh Record. The bound context is shared and re-pointed between the
// engines, so a stale handle would show up here as a miscounted run or
// a recording with classification side effects.
func TestRecordAndRunShareAScratch(t *testing.T) {
	s := NewScratch()
	for i, step := range []struct {
		key    string
		n      int
		record bool
	}{
		{"k1", 200, true}, {"k1", 200, false}, {"k1", 200, true},
		{"k24", 100, false}, {"k24", 100, true}, {"k24", 120, true},
		{"k2", 256, true}, {"k6", 60, false}, {"k2", 256, false},
	} {
		k, err := loops.ByKey(step.key)
		if err != nil {
			t.Fatal(err)
		}
		if !step.record {
			got, err := s.Run(k, step.n, PaperConfig(8, 16))
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			want, err := Run(k, step.n, PaperConfig(8, 16))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("step %d (%s n=%d): run on the shared scratch differs from a fresh run", i, step.key, step.n)
			}
			continue
		}
		got, err := s.Record(k, step.n)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want, err := NewScratch().Record(k, step.n)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Heads, want.Heads) || !slices.Equal(got.Lins, want.Lins) ||
			!slices.Equal(got.ArrayLens, want.ArrayLens) || !reflect.DeepEqual(got.Checksums, want.Checksums) {
			t.Errorf("step %d (%s n=%d): recording on the shared scratch differs from a fresh one", i, step.key, step.n)
		}
		direct, err := Run(k, step.n, PaperConfig(1, 32))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Checksums, direct.Checksums) {
			t.Errorf("step %d (%s n=%d): recorded checksums %v, direct run %v", i, step.key, step.n, got.Checksums, direct.Checksums)
		}
	}
}

// TestRecordCountsNoRun: a recording is not a simulator run (no
// sim.runs, no sim.run_us); the direct run that follows it on the same
// Scratch and (kernel, n) counts as one.
func TestRecordCountsNoRun(t *testing.T) {
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := NewScratch()
	s.Metrics = reg
	if _, err := s.Record(k, 300); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricRuns).Value(); got != 0 {
		t.Errorf("%s = %d after a recording, want 0", MetricRuns, got)
	}
	if _, err := s.Run(k, 300, PaperConfig(8, 32)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricRuns).Value(); got != 1 {
		t.Errorf("%s = %d after a recording and a run, want 1", MetricRuns, got)
	}
	if got := reg.Histogram(MetricRunMicros, obs.MicrosBuckets).Count(); got != 1 {
		t.Errorf("%s observations = %d, want 1", MetricRunMicros, got)
	}
}
