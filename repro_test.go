package repro

import (
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/loops"
	"repro/internal/network"
	"repro/internal/sim"
)

func TestFacadeSimulate(t *testing.T) {
	res, err := Simulate("k1", 1000, PaperConfig(8, 32))
	if err != nil {
		t.Fatal(err)
	}
	if p := res.RemotePercent(); p <= 0 || p > 1.5 {
		t.Errorf("k1 cached remote%% = %.2f", p)
	}
	nc, err := Simulate("k1", 1000, NoCacheConfig(8, 32))
	if err != nil {
		t.Fatal(err)
	}
	if nc.RemotePercent() < 20 {
		t.Errorf("no-cache remote%% = %.2f", nc.RemotePercent())
	}
	if _, err := Simulate("zz", 0, PaperConfig(4, 32)); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestFacadeExecute(t *testing.T) {
	res, err := Execute("k5", 128, DefaultMachine(4, 16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.Writes == 0 {
		t.Error("no writes recorded")
	}
	if _, err := Execute("zz", 0, DefaultMachine(4, 16)); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestFacadeSimulateExecuteAgree(t *testing.T) {
	// The headline integration check: counting simulation and real
	// concurrent execution agree on ownership-determined quantities.
	s, err := Simulate("k18", 64, PaperConfig(4, 16))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Execute("k18", 64, DefaultMachine(4, 16))
	if err != nil {
		t.Fatal(err)
	}
	if s.Totals.Writes != m.Totals.Writes {
		t.Errorf("writes: sim %d, machine %d", s.Totals.Writes, m.Totals.Writes)
	}
	if s.Totals.LocalReads != m.Totals.LocalReads {
		t.Errorf("local reads: sim %d, machine %d", s.Totals.LocalReads, m.Totals.LocalReads)
	}
	for i := range s.Checksums {
		if math.Abs(s.Checksums[i].Sum-m.Checksums[i].Sum) > 1e-9*(1+math.Abs(s.Checksums[i].Sum)) {
			t.Errorf("checksum %s: sim %v, machine %v",
				s.Checksums[i].Name, s.Checksums[i].Sum, m.Checksums[i].Sum)
		}
	}
}

func TestFacadeClassify(t *testing.T) {
	cls, err := Classify("k14frag", 500)
	if err != nil {
		t.Fatal(err)
	}
	if cls != loops.MD {
		t.Errorf("k14frag = %v, want MD", cls)
	}
	if _, err := Classify("zz", 0); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestFacadeConvert(t *testing.T) {
	res, err := ConvertToSA(ir.SampleInPlace(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rewrites) == 0 {
		t.Error("no rewrites")
	}
}

func TestFacadeExperiments(t *testing.T) {
	o, err := RunExperiment("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if !o.Pass() {
		t.Error("fig1 checks failed via facade")
	}
	if _, err := RunExperiment("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeParseAndTiming(t *testing.T) {
	p, err := ParseProgram(`
PROGRAM tiny
  ARRAY X(n+1) OUTPUT
  ARRAY Y(n+1) INPUT
  DO k = 1, n
    X(k) = Y(k)
  END DO
END`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "tiny" {
		t.Errorf("parsed name %q", p.Name)
	}
	if _, err := ParseProgram("garbage"); err == nil {
		t.Error("garbage accepted")
	}

	res, err := Simulate("k14frag", 1024, PaperConfig(16, 32))
	if err != nil {
		t.Fatal(err)
	}
	cm := sim.DefaultCostModel()
	tm := res.Estimate(cm, network.NewMesh2D(res.Config.NPE))
	if tm.Speedup < 12 {
		t.Errorf("MD speedup = %.2f, want near-linear", tm.Speedup)
	}
	if cm.RemoteCycles <= cm.LocalCycles {
		t.Error("cost model orders remote below local")
	}
}
