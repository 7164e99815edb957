package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/kernelreg"
	"repro/internal/serve"
)

func mustSchedule(t *testing.T, workload string, seed int64, n int) []request {
	t.Helper()
	s, err := schedule(workload, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != n {
		t.Fatalf("%s: %d requests, want %d", workload, len(s), n)
	}
	return s
}

func sameSchedule(a, b []request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Path != b[i].Path || a[i].Points != b[i].Points || a[i].Hot != b[i].Hot || !bytes.Equal(a[i].Body, b[i].Body) {
			return false
		}
	}
	return true
}

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	for _, w := range []string{"serve_hot", "serve_tail", "cluster_tail"} {
		a, b := mustSchedule(t, w, 7, 3000), mustSchedule(t, w, 7, 3000)
		if !sameSchedule(a, b) {
			t.Errorf("%s: two schedules for one seed differ", w)
		}
		if sameSchedule(a, mustSchedule(t, w, 8, 3000)) {
			t.Errorf("%s: seeds 7 and 8 give the same schedule", w)
		}
	}
}

func TestClusterTailIsPrefixOfServeTail(t *testing.T) {
	tail := mustSchedule(t, "serve_tail", 3, 40000)
	cluster := mustSchedule(t, "cluster_tail", 3, 25000)
	if !sameSchedule(cluster, tail[:len(cluster)]) {
		t.Fatal("cluster_tail is not a byte-identical prefix of serve_tail for the same seed")
	}
}

// TestServeTailShape pins the properties the workload's reason rests
// on: far more distinct points than the 4096-entry result cache holds,
// warm groups inside the 64-entry stream cache, cold captures that are
// really never-seen, and compiles that cannot reach the tenant quota.
func TestServeTailShape(t *testing.T) {
	const n = 40000
	sched := mustSchedule(t, "serve_tail", 1, n)
	warm := map[group]bool{}
	for _, g := range warmGroups() {
		warm[g] = true
	}
	if len(warm) > 48 {
		t.Fatalf("%d warm groups; the stream cache holds 64 and cold captures need room", len(warm))
	}
	points := map[string]bool{}
	cold := map[group]bool{}
	perTenant := map[string]map[string]bool{}
	kinds := map[opKind]int{}
	for i, rq := range sched {
		kinds[rq.Kind]++
		switch rq.Kind {
		case opClassify, opCold:
			var cr serve.ClassifyRequest
			if err := json.Unmarshal(rq.Body, &cr); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			g := group{cr.Kernel, cr.N}
			if rq.Kind == opCold {
				if warm[g] || cold[g] {
					t.Fatalf("request %d: cold group %v was seen before", i, g)
				}
				cold[g] = true
			} else {
				if !warm[g] {
					t.Fatalf("request %d: classify outside the warm groups: %v", i, g)
				}
				points[string(rq.Body)] = true
			}
		case opSweep:
			var sr serve.SweepRequest
			if err := json.Unmarshal(rq.Body, &sr); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if len(sr.Kernels) != 1 || !warm[group{sr.Kernels[0], sr.N}] {
				t.Fatalf("request %d: sweep outside the warm groups", i)
			}
			if got := 7 * len(sr.PageSizes); got != rq.Points || (got != 7 && got != 14) {
				t.Fatalf("request %d: sweep of %d points, schedule says %d", i, got, rq.Points)
			}
		case opCompile:
			var cr kernelreg.CompileRequest
			if err := json.Unmarshal(rq.Body, &cr); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if perTenant[cr.Tenant] == nil {
				perTenant[cr.Tenant] = map[string]bool{}
			}
			perTenant[cr.Tenant][cr.Source] = true
		default:
			t.Fatalf("request %d: kind %s in serve_tail", i, rq.Kind)
		}
	}
	if len(points) <= 4*4096 {
		t.Errorf("%d distinct classify points; want > %d", len(points), 4*4096)
	}
	for tenant, progs := range perTenant {
		if len(progs) > 16 {
			t.Errorf("tenant %s submits %d programs; quota is 64 and the catalogue has 16", tenant, len(progs))
		}
	}
	if len(perTenant) > len(tenants) {
		t.Errorf("%d tenants", len(perTenant))
	}
	for kind, want := range map[opKind]float64{opClassify: 0.80, opSweep: 0.10, opCold: 0.05, opCompile: 0.05} {
		if got := float64(kinds[kind]) / n; got < want-0.01 || got > want+0.01 {
			t.Errorf("%s share %.3f, want %.2f", kind, got, want)
		}
	}
}

func TestServeHotShape(t *testing.T) {
	const n = 50000
	sched := mustSchedule(t, "serve_hot", 1, n)
	hot := hotSet(1)
	if len(hot) != 64 {
		t.Fatalf("hot set of %d", len(hot))
	}
	nHot := 0
	for i, rq := range sched {
		if rq.Kind == opHot {
			nHot++
			if !bytes.Equal(rq.Body, hot[rq.Hot]) {
				t.Fatalf("request %d: hot body is not hot-set entry %d", i, rq.Hot)
			}
		}
	}
	if share := float64(nHot) / n; share < 0.94 || share > 0.96 {
		t.Errorf("hot share %.3f, want 0.95", share)
	}
}

func TestGridShapes(t *testing.T) {
	reg := kernelreg.New(kernelreg.Limits{}, nil)
	for name, want := range map[string][2]int{"grid_paper": {308, 11}, "grid_nscale": {240, 120}, "grid_wide": {7680, 4}} {
		pts, err := gridPoints(name, reg)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != want[0] || len(groupPoints(pts)) != want[1] {
			t.Errorf("%s: %d points in %d groups, want %d in %d", name, len(pts), len(groupPoints(pts)), want[0], want[1])
		}
		for seed := int64(0); seed < 5; seed++ {
			order := rotateGroups(pts, seed)
			seen := make([]bool, len(pts))
			for _, j := range order {
				seen[j] = true
			}
			for j, ok := range seen {
				if !ok {
					t.Fatalf("%s seed %d: point %d dropped by the rotation", name, seed, j)
				}
			}
			rotated := make([]int, 0, len(order))
			for i, j := range order {
				if i == 0 || pts[j].Kernel != pts[order[i-1]].Kernel || pts[j].N != pts[order[i-1]].N {
					rotated = append(rotated, j)
				}
			}
			if len(rotated) != want[1] {
				t.Errorf("%s seed %d: rotation splits a capture group (%d runs, want %d)", name, seed, len(rotated), want[1])
			}
		}
	}
}

// TestGoldenDigestsAreCurrent recomputes the committed digests with the
// reference engine. grid_wide's 7680 direct runs are skipped with -short.
func TestGoldenDigestsAreCurrent(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.Name == "grid_wide" {
			continue
		}
		pts, err := referencePoints(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := referenceDigest(pts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := readGolden(".", w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: reference digest %s, golden file holds %s (run with -update-golden if the reference engine changed on purpose)", w.Name, got, want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	outer := tr.start("outer", 0, 0)
	inner := tr.start("inner", outer, 0)
	tr.end(inner)
	tr.end(outer)
	self := tr.selfTimes()
	var o, i span
	for _, s := range tr.spans {
		if s.Name == "outer" {
			o = s
		} else {
			i = s
		}
	}
	want := (o.EndUS - o.StartUS) - (i.EndUS - i.StartUS)
	if d := self["outer"] - want; d > 1e-6 || d < -1e-6 {
		t.Errorf("outer self time %v, want %v", self["outer"], want)
	}
	var off *tracer
	if off.start("x", 0, 0) != 0 || off.end(0) != 0 {
		t.Error("a nil tracer must be a no-op")
	}
}
