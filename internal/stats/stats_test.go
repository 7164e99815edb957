package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountersCountAndAdd(t *testing.T) {
	c := Counters{Writes: 1, LocalReads: 2, CachedReads: 1, RemoteReads: 1}
	var d Counters
	d.Add(c)
	d.Add(c)
	if d.Reads() != 8 || d.Accesses() != 10 {
		t.Errorf("after Add: reads=%d accesses=%d", d.Reads(), d.Accesses())
	}
}

func TestRemotePercent(t *testing.T) {
	c := Counters{LocalReads: 90, RemoteReads: 10}
	if got := c.RemotePercent(); math.Abs(got-10) > 1e-12 {
		t.Errorf("RemotePercent = %v", got)
	}
	zero := Counters{}
	if zero.RemotePercent() != 0 {
		t.Error("zero reads should give 0%")
	}
	allRemote := Counters{RemoteReads: 5}
	if allRemote.RemotePercent() != 100 {
		t.Error("all-remote should give 100%")
	}
}

func TestCachedPercent(t *testing.T) {
	c := Counters{LocalReads: 50, CachedReads: 25, RemoteReads: 25}
	if c.CachedPercent() != 25 {
		t.Errorf("CachedPercent = %v", c.CachedPercent())
	}
	if (Counters{}).CachedPercent() != 0 {
		t.Error("zero reads should give 0%")
	}
}

func TestCountersString(t *testing.T) {
	s := Counters{Writes: 1, LocalReads: 2, RemoteReads: 1}.String()
	if !strings.Contains(s, "writes=1") || !strings.Contains(s, "remote=1") {
		t.Errorf("String = %q", s)
	}
}

func TestAccessString(t *testing.T) {
	want := map[Access]string{
		Write: "write", LocalRead: "local-read",
		CachedRead: "cached-read", RemoteRead: "remote-read",
	}
	for a, w := range want {
		if a.String() != w {
			t.Errorf("%d.String() = %q", int(a), a.String())
		}
	}
	if Access(9).String() == "" {
		t.Error("unknown access empty")
	}
}

func TestPerPETotalsAndExtract(t *testing.T) {
	p := PerPE{
		{Writes: 1, LocalReads: 10, CachedReads: 2, RemoteReads: 3},
		{Writes: 2, LocalReads: 20, CachedReads: 4, RemoteReads: 6},
	}
	tot := p.Totals()
	if tot.Writes != 3 || tot.LocalReads != 30 || tot.CachedReads != 6 || tot.RemoteReads != 9 {
		t.Errorf("totals = %+v", tot)
	}
	if got := p.Extract(RemoteRead); got[0] != 3 || got[1] != 6 {
		t.Errorf("Extract(RemoteRead) = %v", got)
	}
	if got := p.Extract(Write); got[0] != 1 || got[1] != 2 {
		t.Errorf("Extract(Write) = %v", got)
	}
	if got := p.Extract(LocalRead); got[0] != 10 {
		t.Errorf("Extract(LocalRead) = %v", got)
	}
	if got := p.Extract(CachedRead); got[1] != 4 {
		t.Errorf("Extract(CachedRead) = %v", got)
	}
}

func TestBalanceOfUniform(t *testing.T) {
	b := BalanceOf([]int64{100, 100, 100, 100})
	if b.CV != 0 || b.Imbalance != 1 || b.Min != 100 || b.Max != 100 {
		t.Errorf("uniform balance = %+v", b)
	}
}

func TestBalanceOfSkewed(t *testing.T) {
	b := BalanceOf([]int64{0, 0, 0, 400})
	if b.Mean != 100 {
		t.Errorf("mean = %v", b.Mean)
	}
	if b.Imbalance != 4 {
		t.Errorf("imbalance = %v", b.Imbalance)
	}
	if b.CV <= 1 {
		t.Errorf("CV = %v, want > 1 for this skew", b.CV)
	}
}

func TestBalanceOfEmptyAndZero(t *testing.T) {
	if b := BalanceOf(nil); b.Mean != 0 || b.CV != 0 {
		t.Errorf("empty balance = %+v", b)
	}
	if b := BalanceOf([]int64{0, 0}); b.CV != 0 || b.Imbalance != 0 {
		t.Errorf("all-zero balance = %+v", b)
	}
}

func TestFigureTable(t *testing.T) {
	f := Figure{
		Title:  "Figure 1",
		XLabel: "PEs",
		YLabel: "% remote",
		Series: []Series{
			{Label: "Cache, ps 32", X: []float64{1, 4}, Y: []float64{0, 2.5}},
			{Label: "No Cache, ps 32", X: []float64{1, 4, 8}, Y: []float64{0, 5, 7.5}},
		},
	}
	out := f.Table()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "Cache, ps 32") {
		t.Errorf("table missing header: %q", out)
	}
	if !strings.Contains(out, "2.50") || !strings.Contains(out, "7.50") {
		t.Errorf("table missing values:\n%s", out)
	}
	// Missing point rendered as "-".
	if !strings.Contains(out, "-") {
		t.Errorf("missing point not dashed:\n%s", out)
	}
}

func TestFigureChart(t *testing.T) {
	f := Figure{
		Title:  "Test",
		XLabel: "PEs",
		YLabel: "%",
		Series: []Series{
			{Label: "a", X: []float64{1, 2, 4}, Y: []float64{0, 50, 100}},
			{Label: "b", X: []float64{1, 2, 4}, Y: []float64{100, 50, 0}},
		},
	}
	out := f.Chart(8)
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Errorf("chart missing marks:\n%s", out)
	}
	if !strings.Contains(out, "A = a") || !strings.Contains(out, "B = b") {
		t.Errorf("chart missing legend:\n%s", out)
	}
	// Tiny height is clamped, flat data does not divide by zero.
	flat := Figure{Series: []Series{{Label: "c", X: []float64{1}, Y: []float64{5}}}}
	if flat.Chart(1) == "" {
		t.Error("flat chart empty")
	}
	empty := Figure{Title: "e"}
	if !strings.Contains(empty.Chart(5), "no data") {
		t.Error("empty chart should say no data")
	}
}

func TestPropertyBalanceBounds(t *testing.T) {
	// Property: Min <= Mean <= Max, CV >= 0, and for nonzero means
	// Imbalance >= 1.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r)
		}
		b := BalanceOf(vals)
		if float64(b.Min) > b.Mean+1e-9 || b.Mean > float64(b.Max)+1e-9 {
			return false
		}
		if b.CV < 0 {
			return false
		}
		if b.Mean > 0 && b.Imbalance < 1-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyRemotePlusCachedWithinBounds(t *testing.T) {
	// Property: percentages are within [0, 100] and sum <= 100.
	f := func(l, cch, r uint16) bool {
		c := Counters{LocalReads: int64(l), CachedReads: int64(cch), RemoteReads: int64(r)}
		rp, cp := c.RemotePercent(), c.CachedPercent()
		return rp >= 0 && rp <= 100 && cp >= 0 && cp <= 100 && rp+cp <= 100+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFigureCSV(t *testing.T) {
	f := Figure{
		XLabel: "PEs",
		Series: []Series{
			{Label: "Cache, ps 32", X: []float64{1, 4}, Y: []float64{0, 2.5}},
			{Label: "No Cache", X: []float64{4}, Y: []float64{5}},
		},
	}
	got := f.CSV()
	want := "\"Cache, ps 32\""
	if !strings.Contains(got, want) {
		t.Errorf("CSV lacks quoted label: %q", got)
	}
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines: %q", len(lines), got)
	}
	if lines[1] != "1,0," {
		t.Errorf("row 1 = %q (missing point should be empty)", lines[1])
	}
	if lines[2] != "4,2.5,5" {
		t.Errorf("row 2 = %q", lines[2])
	}
}

func TestCSVQuote(t *testing.T) {
	if csvQuote("plain") != "plain" {
		t.Error("plain string quoted")
	}
	if csvQuote(`a"b`) != `"a""b"` {
		t.Errorf("quote escaping = %q", csvQuote(`a"b`))
	}
}

func TestFigureSVG(t *testing.T) {
	f := Figure{
		Title:  "Fig <1> & more",
		XLabel: "PEs",
		YLabel: "% remote",
		Series: []Series{
			{Label: "Cache", X: []float64{1, 4, 16}, Y: []float64{0, 2.5, 3}},
			{Label: "No Cache", X: []float64{1, 4, 16}, Y: []float64{0, 50, 90}},
		},
	}
	svg := f.SVG(480, 320)
	for _, want := range []string{"<svg", "</svg>", "polyline", "Fig &lt;1&gt; &amp; more", "No Cache"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG lacks %q", want)
		}
	}
	if n := strings.Count(svg, "<polyline"); n != 2 {
		t.Errorf("polyline count = %d, want 2", n)
	}
	if n := strings.Count(svg, "<circle"); n != 6 {
		t.Errorf("marker count = %d, want 6", n)
	}
}

func TestFigureSVGDegenerate(t *testing.T) {
	empty := Figure{Title: "e"}
	if svg := empty.SVG(10, 10); !strings.Contains(svg, "no data") {
		t.Error("empty figure SVG lacks placeholder")
	}
	// Flat series must not divide by zero.
	flat := Figure{Series: []Series{{Label: "f", X: []float64{3}, Y: []float64{7}}}}
	if svg := flat.SVG(200, 150); !strings.Contains(svg, "<circle") {
		t.Error("flat figure lost its point")
	}
}
