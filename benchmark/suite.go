package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"

	"repro/internal/sim"
)

// suite.go — the human-facing modes: run every workload, repeat the
// suite and report dispersion, compare two result files.

// runRecord is one run of one workload in a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	result
}

// resultFile is what -o writes and -compare reads.
type resultFile struct {
	Host    host        `json:"host"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// paperHeadline is the paper's headline figure, reported beside the
// speeds: k1 on 8 PEs with 32-element pages, remote reads without and
// with the 256-element cache (21.70% -> 1.03%).
func paperHeadline() (string, error) {
	k := mustKernel("k1")
	bare, err := sim.Run(k, 0, sim.NoCacheConfig(8, 32))
	if err != nil {
		return "", err
	}
	cached, err := sim.Run(k, 0, sim.PaperConfig(8, 32))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("k1, 8 PEs, page 32: %.2f%% -> %.2f%% remote reads", bare.RemotePercent(), cached.RemotePercent()), nil
}

// updateGolden rewrites every golden digest from the reference engine.
func updateGolden(env *environment) error {
	for _, w := range workloads {
		pts, err := referencePoints(w)
		if err != nil {
			return err
		}
		sum, err := referenceDigest(pts)
		if err != nil {
			return err
		}
		if err := os.WriteFile(goldenPath(env.benchDir, w.Name), []byte(sum+"\n"), 0o644); err != nil {
			return err
		}
		fmt.Printf("%s: %d points, %s\n", w.Name, len(pts), sum)
	}
	return nil
}

// runSuite runs every workload in its own child process, repeat times.
func runSuite(env *environment, seed int64, seconds float64, traced bool, repeat int, out string) error {
	file := resultFile{Host: hostShape(), Seed: seed, Seconds: seconds}
	traces := []int{0}
	if traced {
		traces = append(traces, 1)
	}
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloads {
			for _, trace := range traces {
				cmd := exec.Command(env.self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s (trace %d): %w", w.Name, trace, err)
				}
				rec := runRecord{Workload: w.Name, Trace: trace}
				if err := json.Unmarshal(lastLine(stdout), &rec.result); err != nil {
					return fmt.Errorf("%s: bad result line: %w", w.Name, err)
				}
				file.Runs = append(file.Runs, rec)
				if repeat == 1 {
					printRun(rec)
				}
			}
		}
	}
	if repeat > 1 {
		printDispersion(&file)
	}
	failed := false
	for _, r := range file.Runs {
		if !r.Correct || r.Failed > 0 {
			failed = true
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(&file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("some ops failed or an output check did not pass")
	}
	return nil
}

// printRun prints every metric of a run by name, with its unit.
func printRun(r runRecord) {
	fmt.Printf("%s (trace %d): correct=%t ops=%d failed_ops=%d\n", r.Workload, r.Trace, r.Correct, r.Attempted, r.Failed)
	for _, m := range tableFor(r.Trace == 1) {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Printf("%-14s %-46s %14.4f %s\n", r.Workload, m.Name, v.Value, v.Unit)
		}
	}
}

// samples collects a metric's values over a file's runs of one workload.
func (f *resultFile) samples(workload, metric string, trace int) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// printDispersion prints median, quartiles and spread per (metric,
// workload), and the bound the spread supports: the metric's starting
// bound, widened to twice the relative inter-quartile range if that is
// larger. A metric whose (max-min)/median exceeds 10% on some workload
// is a candidate for demotion to the per-layer list.
func printDispersion(f *resultFile) {
	fmt.Printf("%-14s %-20s %12s %12s %12s %8s %8s  %s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "range", "bound")
	for _, m := range endToEnd {
		widest := m.Bound
		for _, w := range workloads {
			v := f.samples(w.Name, m.Name, 0)
			if len(v) == 0 {
				continue
			}
			s := sortedCopy(v)
			q1, q3 := quartiles(v)
			med := median(v)
			rng := (s[len(s)-1] - s[0]) / med
			note := ""
			if rng > 0.10 {
				note = "  range > 10%: demotion candidate"
			}
			widest = max(widest, 2*spread(v))
			fmt.Printf("%-14s %-20s %12.4f %12.4f %12.4f %8.4f %8.4f  %.2f%s\n", w.Name, m.Name, med, q1, q3, spread(v), rng, m.Bound, note)
		}
		fmt.Printf("%-14s %-20s supported bound %.3f (BENCHMARK.json holds %.2f)\n", "", m.Name, widest, m.Bound)
	}
}

// compareFiles prints a verdict per (end-to-end metric, workload) of B
// against A and fails on any "worse" or on a higher failed-op share.
func compareFiles(pathA, pathB string) error {
	var a, b resultFile
	for _, x := range []struct {
		path string
		f    *resultFile
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, x.f); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	if a.Host != b.Host {
		return fmt.Errorf("host shapes differ (%+v vs %+v): results are not comparable", a.Host, b.Host)
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("run lengths differ (%g s vs %g s): results are not comparable", a.Seconds, b.Seconds)
	}
	worse := 0
	fmt.Printf("%-14s %-20s %12s %12s %8s  %s\n", "workload", "metric", "A median", "B median", "B/A", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, vb := a.samples(w.Name, m.Name, 0), b.samples(w.Name, m.Name, 0)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(m, va, vb)
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-14s %-20s %12.4f %12.4f %8.4f  %s\n", w.Name, m.Name, median(va), median(vb), median(vb)/median(va), v)
		}
		fa, fb := a.failShare(w.Name), b.failShare(w.Name)
		if fb > fa {
			worse++
			fmt.Printf("%-14s failed ops rose from %.4f to %.4f of attempted: worse\n", w.Name, fa, fb)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d (metric, workload) pairs are worse", worse)
	}
	return nil
}

func (f *resultFile) failShare(workload string) float64 {
	att, failed := 0, 0
	for _, r := range f.Runs {
		if r.Workload == workload {
			att += r.Attempted
			failed += r.Failed
		}
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}

// verdict judges B's median against A's. Beyond the bound in the bad
// direction is "worse"; where A's own runs spread wider than the bound
// the pair is "unresolved" unless every run of B beats every run of A;
// "better" needs the medians to differ by more than A's inter-quartile
// range; anything else is "same".
func verdict(m metric, a, b []float64) string {
	ma, mb := median(a), median(b)
	gain := (mb - ma) / ma // > 0 is better for "higher"
	if m.Better == "lower" {
		gain = -gain
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	allBetter := sb[0] > sa[len(sa)-1]
	if m.Better == "lower" {
		allBetter = sb[len(sb)-1] < sa[0]
	}
	switch {
	case allBetter:
		return "better"
	case spread(a) > m.Bound:
		return "unresolved"
	case gain < -m.Bound:
		return "worse"
	case gain > spread(a) && gain > 0 && len(a) > 1:
		return "better"
	}
	return "same"
}
