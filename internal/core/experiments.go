package core

// The paper-figure and table experiments. Every parameter grid is
// expanded into sweep.Points up front and executed on the parallel
// sweep engine; result slices come back in grid order, so the rendered
// tables are identical to the historical serial implementation.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/loops"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// runPoints sweeps pts over the bounded worker pool and returns
// results in grid order.
func runPoints(pts []sweep.Point) ([]*sim.Result, error) {
	return sweep.RunOpts(context.Background(), pts, sweep.Options{})
}

// pePoint builds one paper-baseline grid point.
func pePoint(k *loops.Kernel, n, npe, ps, ce int) sweep.Point {
	cfg := sim.PaperConfig(npe, ps)
	cfg.CacheElems = ce
	return sweep.Point{Kernel: k, N: n, Config: cfg}
}

// paperFigure builds the paper's standard four series (cache/no-cache
// x page size 32/64) for a kernel, sweeping all 4*len(PESweep) points
// concurrently.
func paperFigure(key string, n int, title string) (*stats.Figure, error) {
	k, err := loops.ByKey(key)
	if err != nil {
		return nil, err
	}
	type spec struct {
		label string
		ps    int
		ce    int
	}
	var specs []spec
	for _, ps := range []int{32, 64} {
		specs = append(specs,
			spec{fmt.Sprintf("Cache, ps %d", ps), ps, 256},
			spec{fmt.Sprintf("No Cache, ps %d", ps), ps, 0})
	}
	var pts []sweep.Point
	for _, sp := range specs {
		for _, npe := range PESweep {
			pts = append(pts, pePoint(k, n, npe, sp.ps, sp.ce))
		}
	}
	results, err := runPoints(pts)
	if err != nil {
		return nil, err
	}
	fig := &stats.Figure{Title: title, XLabel: "PEs", YLabel: "% of reads remote"}
	for si, sp := range specs {
		s := stats.Series{Label: sp.label}
		for pi, npe := range PESweep {
			s.X = append(s.X, float64(npe))
			s.Y = append(s.Y, results[si*len(PESweep)+pi].RemotePercent())
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// at returns the Y value of the labeled series at x.
func at(fig *stats.Figure, label string, x float64) float64 {
	for _, s := range fig.Series {
		if s.Label != label {
			continue
		}
		for i, sx := range s.X {
			if sx == x {
				return s.Y[i]
			}
		}
	}
	return -1
}

func check(name string, pass bool, format string, args ...any) Check {
	return Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)}
}

// Figure1 reproduces the skewed-distribution figure: Hydro Fragment
// with skew 10/11. Paper: cached series < 10% ("1% to 10%", §8 even
// cites the 22% -> 1% reduction for this skew); no-cache ps32 ≈ 22%.
func Figure1() (*Outcome, error) {
	fig, err := paperFigure("k1", 1000, "Figure 1: Hydro Fragment (SD, skew 11)")
	if err != nil {
		return nil, err
	}
	nc32 := at(fig, "No Cache, ps 32", 8)
	c32 := at(fig, "Cache, ps 32", 8)
	nc64 := at(fig, "No Cache, ps 64", 8)
	c64 := at(fig, "Cache, ps 64", 8)
	o := &Outcome{
		Title:  fig.Title,
		Paper:  "no-cache ps32 ~22%; cache cuts it to ~1%; ps 64 halves the no-cache ratio",
		Figure: fig,
		Text:   fig.Table(),
		Notes: "The no-cache ps 32 plateau is arithmetically exact: with skew 11, " +
			"21 of every 96 reads cross a page boundary (21.875%), minus edge pages. " +
			"One PE is always fully local, and the series is flat for 2 or more PEs " +
			"because modulo layout makes every boundary page remote regardless of PE count.",
	}
	o.Checks = []Check{
		check("no-cache ps32 ~22%", nc32 > 20 && nc32 < 23, "measured %.2f%%", nc32),
		check("cache reduces to ~1%", c32 > 0 && c32 < 1.5, "measured %.2f%%", c32),
		check("ps 64 halves boundary fraction", nc64 > 9 && nc64 < 12.5, "measured %.2f%%", nc64),
		check("cached ps64 below cached ps32", c64 < c32, "%.2f%% vs %.2f%%", c64, c32),
		check("single PE fully local", at(fig, "No Cache, ps 32", 1) == 0, "measured %.2f%%", at(fig, "No Cache, ps 32", 1)),
	}
	return o, nil
}

// Figure2 reproduces the cyclic-distribution figure: ICCG. Paper:
// no-cache approaches 100%; the cache collapses it dramatically and
// larger pages help further.
func Figure2() (*Outcome, error) {
	fig, err := paperFigure("k2", 1024, "Figure 2: Incomplete Cholesky - Conjugate Gradient (CD)")
	if err != nil {
		return nil, err
	}
	o := &Outcome{
		Title:  fig.Title,
		Paper:  "no-cache rises toward 100%; with cache the percentage is reduced significantly",
		Figure: fig,
		Text:   fig.Table(),
		Notes: "Deviation note: the paper's cached ICCG curve starts high (~40% at 4 PEs) " +
			"and falls toward 0 at 32 PEs. Under a faithful per-PE LRU model the " +
			"sequential sweep inside each pass already exploits locality at *every* PE " +
			"count, so the curve starts near its floor; the paper's headline (\"caching " +
			"and page size can reduce the percentage of remote reads significantly\") is " +
			"reproduced and exceeded, but the published descending shape is not. The " +
			"same total-cache-grows mechanism the paper describes *is* visible on " +
			"Figure 3, where this reproduction does decline.",
	}
	nc16 := at(fig, "No Cache, ps 32", 16)
	c16 := at(fig, "Cache, ps 32", 16)
	c16ps64 := at(fig, "Cache, ps 64", 16)
	o.Checks = []Check{
		check("no-cache highly remote", nc16 > 80, "measured %.2f%% at 16 PEs", nc16),
		check("no-cache grows with PEs", at(fig, "No Cache, ps 32", 64) > at(fig, "No Cache, ps 32", 4), "%.2f%% -> %.2f%%",
			at(fig, "No Cache, ps 32", 4), at(fig, "No Cache, ps 32", 64)),
		check("cache collapses CD", c16 < 5, "measured %.2f%%", c16),
		check("larger pages cut it further", c16ps64 < c16, "%.2f%% vs %.2f%%", c16ps64, c16),
	}
	return o, nil
}

// Figure3 reproduces the cyclic+skewed combination: 2-D Explicit
// Hydrodynamics. Paper: low percentages (0-8% axis) decreasing with PE
// count when cached.
func Figure3() (*Outcome, error) {
	k, err := loops.ByKey("k18")
	if err != nil {
		return nil, err
	}
	fig, err := paperFigure("k18", k.DefaultN, "Figure 3: 2-D Explicit Hydrodynamics (CD+SD)")
	if err != nil {
		return nil, err
	}
	o := &Outcome{
		Title:  fig.Title,
		Paper:  "remote percentage is low (0-8%) and decreases as PEs increase, aided further by caching",
		Figure: fig,
		Text:   fig.Table(),
		Notes: "The decline happens exactly where the per-PE boundary working set drops " +
			"under the 256-element cache — the paper's \"each PE is more likely to " +
			"contain all of an access cycle in its cache\".",
	}
	c8 := at(fig, "Cache, ps 32", 8)
	c32 := at(fig, "Cache, ps 32", 32)
	nc8 := at(fig, "No Cache, ps 32", 8)
	nc32 := at(fig, "No Cache, ps 32", 32)
	o.Checks = []Check{
		check("stays in the paper's low band", nc8 < 10, "no-cache %.2f%%", nc8),
		check("cached declines with PEs", c32 < c8, "%.2f%% -> %.2f%%", c8, c32),
		check("no-cache flat", nc8-nc32 < 0.5 && nc32-nc8 < 0.5, "%.2f%% vs %.2f%%", nc8, nc32),
		check("cache always at or below no-cache", c8 <= nc8 && c32 <= nc32, "c8=%.2f nc8=%.2f", c8, nc8),
	}
	return o, nil
}

// Figure4 reproduces the random-distribution figure: General Linear
// Recurrence. Paper: large remote ratios (tens of percent) regardless
// of caching at the small fixed cache.
func Figure4() (*Outcome, error) {
	fig, err := paperFigure("k6", 300, "Figure 4: General Linear Recurrence Equations (RD)")
	if err != nil {
		return nil, err
	}
	o := &Outcome{
		Title:  fig.Title,
		Paper:  "RD exhibits large remote ratios regardless of the presence or absence of caching (20-70% band)",
		Figure: fig,
		Text:   fig.Table(),
		Notes: "The RD mechanism is the B(k,i) row-walk: linearizing the Fortran " +
			"subscripts row-major (the paper's §7 convention) makes the inner k-loop " +
			"jump a full row per read — a cycle far larger than the cache.",
	}
	c16 := at(fig, "Cache, ps 32", 16)
	nc16 := at(fig, "No Cache, ps 32", 16)
	c16ps64 := at(fig, "Cache, ps 64", 16)
	o.Checks = []Check{
		check("cached stays high", c16 > 20, "measured %.2f%%", c16),
		check("no-cache higher still", nc16 > c16, "%.2f%% vs %.2f%%", nc16, c16),
		check("page size does not rescue RD", c16ps64 > 20, "measured %.2f%%", c16ps64),
	}
	return o, nil
}

// Figure5 reproduces the load-balance figure: per-PE local and remote
// reads on the 2-D hydro loop at 64 PEs, page size 32. Paper: "each of
// the sixty-four PEs performs a comparable number of remote reads and
// local reads".
func Figure5() (*Outcome, error) {
	k, err := loops.ByKey("k18")
	if err != nil {
		return nil, err
	}
	// n chosen so each array's page count divides evenly over 64 PEs,
	// as the paper's near-flat bars imply.
	const n, npe = 1022, 64
	fig := &stats.Figure{
		Title:  "Figure 5: load balance, 2-D Explicit Hydrodynamics, 64 PEs, ps 32",
		XLabel: "PE", YLabel: "reads",
	}
	results, err := runPoints([]sweep.Point{
		pePoint(k, n, npe, 32, 256),
		pePoint(k, n, npe, 32, 0),
	})
	if err != nil {
		return nil, err
	}
	var checks []Check
	cachedPer := results[0].PerPE
	for ri, lbl := range []string{"with Cache", "with No Cache"} {
		res := results[ri]
		for _, cls := range []struct {
			a   stats.Access
			lbl string
		}{{stats.RemoteRead, "Remote " + lbl}, {stats.LocalRead, "Local " + lbl}} {
			vals := res.PerPE.Extract(cls.a)
			s := stats.Series{Label: cls.lbl}
			for pe, v := range vals {
				s.X = append(s.X, float64(pe))
				s.Y = append(s.Y, float64(v))
			}
			fig.Series = append(fig.Series, s)
			b := stats.BalanceOf(vals)
			checks = append(checks, check(
				fmt.Sprintf("%s balanced", cls.lbl),
				b.CV < 0.25,
				"CV=%.3f mean=%.0f min=%d max=%d", b.CV, b.Mean, b.Min, b.Max))
		}
	}
	wb := stats.BalanceOf(cachedPer.Extract(stats.Write))
	checks = append(checks, check("writes balanced (area of responsibility)",
		wb.CV < 0.1, "CV=%.3f", wb.CV))

	var txt strings.Builder
	txt.WriteString(fig.Title + "\n")
	fmt.Fprintf(&txt, "%-28s %10s %10s %10s %8s\n", "series", "min", "mean", "max", "CV")
	for _, s := range fig.Series {
		vals := make([]int64, len(s.Y))
		for i, y := range s.Y {
			vals[i] = int64(y)
		}
		b := stats.BalanceOf(vals)
		fmt.Fprintf(&txt, "%-28s %10d %10.0f %10d %8.3f\n", s.Label, b.Min, b.Mean, b.Max, b.CV)
	}
	return &Outcome{
		Title:  fig.Title,
		Paper:  "evenly balanced loads result from the area-of-responsibility concept",
		Figure: fig,
		Text:   txt.String(),
		Checks: checks,
	}, nil
}

// TableA reproduces the §7.1 taxonomy: every loop the paper classifies
// must land in its published class under the dynamic classifier.
func TableA() (*Outcome, error) {
	reports, err := classify.Kernels(loops.All(), 0)
	if err != nil {
		return nil, err
	}
	var txt strings.Builder
	fmt.Fprintf(&txt, "%-10s %-48s %-6s %-8s %9s %9s\n",
		"kernel", "name", "paper", "measured", "nc16 %", "c16 %")
	var checks []Check
	for _, r := range reports {
		fmt.Fprintf(&txt, "%-10s %-48s %-6s %-8s %9.2f %9.2f\n",
			r.Key, r.Name, r.Paper, r.Measured, r.Evidence.NoCache16, r.Evidence.Cached16)
		if r.Paper != loops.ClassUnknown {
			checks = append(checks, check(
				fmt.Sprintf("%s classified %s", r.Key, r.Paper),
				r.Measured == r.Paper,
				"measured %s (nc16=%.1f%% c16=%.1f%%)", r.Measured, r.Evidence.NoCache16, r.Evidence.Cached16))
		}
	}
	return &Outcome{
		Title: "Table A: access-distribution classes",
		Paper: "MD: 1-D PIC fragment; SD: hydro, tri-diag, EOS, hydro-frag, first sum, first diff; CD: ICCG, 2-D hydro; RD: GLR, ADI",
		Text:  txt.String(),
		Notes: "The kernels the paper does not classify are reported with " +
			"Paper=?; notable among them: inner product, Planckian and first-min " +
			"come out MD (matched, 0% remote); 2-D PIC, 1-D PIC with its gathers, " +
			"matmul and Monte Carlo come out RD, consistent with the paper's " +
			"\"permutation lookup\" criterion.",
		Checks: checks,
	}, nil
}

// TableB reproduces the §8 conclusions: with the small 256-element
// cache, most loops are below 10% remote; SD loops sit in the 1-10%
// band; the large-skew SD case drops from 22% to ~1%.
func TableB() (*Outcome, error) {
	paperSet := map[string]bool{}
	for _, k := range loops.PaperSet() {
		paperSet[k.Key] = true
	}
	all := loops.All()
	k1, err := loops.ByKey("k1")
	if err != nil {
		return nil, err
	}
	var pts []sweep.Point
	for _, k := range all {
		pts = append(pts,
			sweep.Point{Kernel: k, Config: sim.NoCacheConfig(16, 32)},
			sweep.Point{Kernel: k, Config: sim.PaperConfig(16, 32)})
	}
	// §8's large-skew datum uses k1 at n=1000 (the Figure 1 setting).
	pts = append(pts,
		sweep.Point{Kernel: k1, N: 1000, Config: sim.NoCacheConfig(16, 32)},
		sweep.Point{Kernel: k1, N: 1000, Config: sim.PaperConfig(16, 32)})
	results, err := runPoints(pts)
	if err != nil {
		return nil, err
	}
	var txt strings.Builder
	fmt.Fprintf(&txt, "%-10s %-6s %12s %12s\n", "kernel", "class", "no-cache %", "cached %")
	var below10, total int
	var checks []Check
	for i, k := range all {
		nc, wc := results[2*i], results[2*i+1]
		fmt.Fprintf(&txt, "%-10s %-6s %12.2f %12.2f\n", k.Key, k.Class, nc.RemotePercent(), wc.RemotePercent())
		if paperSet[k.Key] {
			total++
			if wc.RemotePercent() < 10 {
				below10++
			}
		}
		if k.Class == loops.SD {
			checks = append(checks, check(
				fmt.Sprintf("SD %s in 0-10%% band", k.Key),
				wc.RemotePercent() <= 10,
				"cached %.2f%%", wc.RemotePercent()))
		}
	}
	fmt.Fprintf(&txt, "\n%d of %d paper-studied loops below 10%% remote with the 256-element cache\n", below10, total)
	// §8: "for most access distributions, the percentages of remote
	// accesses are less than 10%" — the paper's loop set, where only
	// the two RD loops exceed the band.
	checks = append(checks, check("most paper loops below 10% remote",
		float64(below10) > 0.7*float64(total), "%d of %d", below10, total))
	// §8: "for an SD loop with large skew, we observed a reduction from
	// 22% remote reads to 1%".
	nc, wc := results[2*len(all)], results[2*len(all)+1]
	checks = append(checks, check("large-skew SD: 22% -> 1%",
		nc.RemotePercent() > 20 && nc.RemotePercent() < 23 && wc.RemotePercent() < 1.5,
		"measured %.2f%% -> %.2f%%", nc.RemotePercent(), wc.RemotePercent()))
	return &Outcome{
		Title:  "Table B: §8 conclusions summary (16 PEs, ps 32)",
		Paper:  "percentages of remote accesses are less than 10% for most access distributions; SD 1-10%; 22%->1% for large skew",
		Text:   txt.String(),
		Checks: checks,
	}, nil
}

// AblationLayout compares the paper's modulo partitioning against the
// §9 "division scheme" per class exemplar. Paper: "our simple modulo
// partitioning scheme performs worse for certain loops than a division
// scheme".
func AblationLayout() (*Outcome, error) {
	fig := &stats.Figure{Title: "Ablation α: modulo vs block (division) layout, no cache, 16 PEs, ps 32",
		XLabel: "kernel", YLabel: "% remote"}
	keys := []string{"k14frag", "k1", "k5", "k11", "k2", "k18", "k6", "k8"}
	ks := make([]*loops.Kernel, len(keys))
	var pts []sweep.Point
	for i, key := range keys {
		k, err := loops.ByKey(key)
		if err != nil {
			return nil, err
		}
		ks[i] = k
		blkCfg := sim.NoCacheConfig(16, 32)
		blkCfg.Layout = partition.KindBlock
		pts = append(pts,
			sweep.Point{Kernel: k, Config: sim.NoCacheConfig(16, 32)},
			sweep.Point{Kernel: k, Config: blkCfg})
	}
	results, err := runPoints(pts)
	if err != nil {
		return nil, err
	}
	var txt strings.Builder
	fmt.Fprintf(&txt, "%-10s %-6s %10s %10s\n", "kernel", "class", "modulo %", "block %")
	var checks []Check
	var anyBlockWins bool
	for i, k := range ks {
		mod, blk := results[2*i], results[2*i+1]
		fmt.Fprintf(&txt, "%-10s %-6s %10.2f %10.2f\n", keys[i], k.Class, mod.RemotePercent(), blk.RemotePercent())
		if blk.RemotePercent() < mod.RemotePercent()-0.5 {
			anyBlockWins = true
		}
	}
	checks = append(checks, check("division beats modulo on some loops", anyBlockWins, "see table"))
	return &Outcome{
		Title: fig.Title,
		Paper: "modulo performs worse for certain loops than a division scheme (§9)",
		Text:  txt.String(),
		Notes: "Division (block) halves k1 and k5 and helps k18, while k2 is " +
			"indifferent and k8 slightly prefers modulo — exactly the " +
			"\"nonintersecting set\" of loops the paper speculates about in §9.",
		Checks: checks,
	}, nil
}

// AblationCacheSize sweeps the cache size on the RD exemplars. Paper:
// "poor performance of RD can be overcome by larger cache sizes".
func AblationCacheSize() (*Outcome, error) {
	sizes := []int{0, 64, 256, 1024, 4096, 16384}
	keys := []string{"k6", "k8"}
	fig := &stats.Figure{Title: "Ablation β: cache size vs % remote (16 PEs, ps 32)",
		XLabel: "cache elements", YLabel: "% remote"}
	var pts []sweep.Point
	for _, key := range keys {
		k, err := loops.ByKey(key)
		if err != nil {
			return nil, err
		}
		for _, ce := range sizes {
			pts = append(pts, pePoint(k, 0, 16, 32, ce))
		}
	}
	results, err := runPoints(pts)
	if err != nil {
		return nil, err
	}
	var checks []Check
	for ki, key := range keys {
		s := stats.Series{Label: key}
		for si, ce := range sizes {
			s.X = append(s.X, float64(ce))
			s.Y = append(s.Y, results[ki*len(sizes)+si].RemotePercent())
		}
		fig.Series = append(fig.Series, s)
		checks = append(checks, check(
			fmt.Sprintf("%s rescued by large cache", key),
			s.Y[len(s.Y)-1] < s.Y[2]/3,
			"256-elem %.2f%% -> 16k-elem %.2f%%", s.Y[2], s.Y[len(s.Y)-1]))
		checks = append(checks, check(
			fmt.Sprintf("%s monotone in cache size", key),
			nonIncreasing(s.Y, 1.0),
			"series %v", s.Y))
	}
	return &Outcome{
		Title:  fig.Title,
		Paper:  "increasing the cache size will help by allowing a complete cycle to reside in the cache (§7.1.4)",
		Figure: fig,
		Text:   fig.Table(),
		Notes: "Both RD loops collapse once the cache covers their cycle; the knee " +
			"position differs per loop (k8's working set is a few hundred elements, " +
			"k6's is the full W/B row span).",
		Checks: checks,
	}, nil
}

// AblationPageSize sweeps the page size. Paper §9: page-size
// selectability "might prove useful for reducing communication
// overhead in some classes of loops" — while §7.1.2 warns over-large
// pages stop spreading the work.
func AblationPageSize() (*Outcome, error) {
	sizes := []int{8, 16, 32, 64, 128, 256}
	keys := []string{"k1", "k2"}
	fig := &stats.Figure{Title: "Ablation γ: page size vs % remote (16 PEs, 256-elem cache)",
		XLabel: "page size", YLabel: "% remote"}
	var pts []sweep.Point
	for _, key := range keys {
		k, err := loops.ByKey(key)
		if err != nil {
			return nil, err
		}
		for _, ps := range sizes {
			pts = append(pts, sweep.Point{Kernel: k, Config: sim.PaperConfig(16, ps)})
		}
	}
	results, err := runPoints(pts)
	if err != nil {
		return nil, err
	}
	for ki, key := range keys {
		s := stats.Series{Label: key}
		for si, ps := range sizes {
			s.X = append(s.X, float64(ps))
			s.Y = append(s.Y, results[ki*len(sizes)+si].RemotePercent())
		}
		fig.Series = append(fig.Series, s)
	}
	// k1 (boundary-limited SD): larger pages, fewer boundaries — until
	// the page exceeds the cache (ps 256 = 1 frame, still one boundary
	// fetch). The crossover the paper warns about is visible as the
	// curve flattening rather than falling forever.
	k1 := fig.Series[0]
	var checks []Check
	checks = append(checks, check("k1 improves from ps 8 to ps 64",
		k1.Y[3] < k1.Y[0], "%.2f%% -> %.2f%%", k1.Y[0], k1.Y[3]))
	return &Outcome{
		Title:  fig.Title,
		Paper:  "selecting the page size might prove useful for reducing communication overhead (§9)",
		Figure: fig,
		Text:   fig.Table(),
		Notes: "k1 improves monotonically with page size. k2 improves until the page " +
			"size exceeds the 256-element cache — zero cache frames — and collapses: " +
			"the §7.1.2 warning that an over-large page size defeats the design, made " +
			"quantitative.",
		Checks: checks,
	}, nil
}

// AblationPolicy compares page replacement policies. The paper fixed
// LRU (§4); this quantifies how much that choice matters per class.
func AblationPolicy() (*Outcome, error) {
	policies := []cache.Policy{cache.LRU, cache.FIFO, cache.Clock, cache.Random}
	keys := []string{"k2", "k6", "k18"}
	var pts []sweep.Point
	for _, key := range keys {
		k, err := loops.ByKey(key)
		if err != nil {
			return nil, err
		}
		for _, pol := range policies {
			cfg := sim.PaperConfig(16, 32)
			cfg.Policy = pol
			pts = append(pts, sweep.Point{Kernel: k, Config: cfg})
		}
	}
	results, err := runPoints(pts)
	if err != nil {
		return nil, err
	}
	var txt strings.Builder
	fmt.Fprintf(&txt, "%-10s %8s %8s %8s %8s\n", "kernel", "lru", "fifo", "clock", "random")
	var checks []Check
	for ki, key := range keys {
		fmt.Fprintf(&txt, "%-10s", key)
		vals := map[cache.Policy]float64{}
		for pi, pol := range policies {
			rp := results[ki*len(policies)+pi].RemotePercent()
			vals[pol] = rp
			fmt.Fprintf(&txt, " %8.2f", rp)
		}
		txt.WriteString("\n")
		worst := 0.0
		for _, v := range vals {
			if v > worst {
				worst = v
			}
		}
		checks = append(checks, check(
			fmt.Sprintf("%s: LRU within 1.5x of best-case policies", key),
			vals[cache.LRU] <= worst+1e-9 && vals[cache.LRU] <= 1.5*minOf(vals)+1.0,
			"lru=%.2f%% min=%.2f%%", vals[cache.LRU], minOf(vals)))
	}
	return &Outcome{
		Title: "Ablation δ: replacement policy vs % remote (16 PEs, ps 32, 256-elem cache)",
		Paper: "the paper fixes LRU; this quantifies the sensitivity of that choice",
		Text:  txt.String(),
		Notes: "LRU (the paper's choice) is within noise of FIFO/Clock/Random on CD " +
			"loops and the best policy on the RD loop; on k18, FIFO/Clock slightly " +
			"beat LRU. The paper's fixed choice is reasonable but not dominant.",
		Checks: checks,
	}, nil
}

func minOf(m map[cache.Policy]float64) float64 {
	first := true
	var mn float64
	for _, v := range m {
		if first || v < mn {
			mn = v
			first = false
		}
	}
	return mn
}

// nonIncreasing allows slack absolute percentage points of noise.
func nonIncreasing(ys []float64, slack float64) bool {
	for i := 1; i < len(ys); i++ {
		if ys[i] > ys[i-1]+slack {
			return false
		}
	}
	return true
}
