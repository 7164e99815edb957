package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// TestMetricNamesDocumented requires every metric the program can print
// to be well-formed, unique, and present in both BENCHMARK.json and the
// README glossary.
func TestMetricNamesDocumented(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if !wellFormed.MatchString(m.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %q appears twice", m.Name)
			}
			seen[m.Name] = true
			if !bytes.Contains(readme, []byte("`"+m.Name+"`")) {
				t.Errorf("metric %q is not in README.md", m.Name)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("metric %q: direction %q", m.Name, m.Better)
			}
		}
	}
	for _, w := range workloads {
		if !bytes.Contains(readme, []byte("`"+w.Name+"`")) {
			t.Errorf("workload %q is not in README.md", w.Name)
		}
	}
}

// TestManifestMatchesTables pins BENCHMARK.json to the tables in this
// package: it is generated from them (run.sh -manifest) and never
// edited by hand.
func TestManifestMatchesTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the metric and workload tables; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("table sizes outside the manifest's limits")
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: reason is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
}
