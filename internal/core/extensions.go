package core

// Extension experiments: the paper's §9 future-work items, implemented
// and measured. These go beyond the published figures — each Outcome
// says explicitly what the paper only sketches.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/classify"
	"repro/internal/loops"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// ExtSpeedup estimates execution time and speedup per access class
// under the abstract cost model (§9: "a more sophisticated simulation
// will better explore the problems of execution time").
func ExtSpeedup() (*Outcome, error) {
	cm := sim.DefaultCostModel()
	fig := &stats.Figure{
		Title:  "Extension: estimated speedup vs PEs (cost model, ps 32, 256-elem cache)",
		XLabel: "PEs", YLabel: "speedup",
	}
	subjects := []struct {
		key string
		cls loops.Class
	}{
		{"k14frag", loops.MD}, {"k1", loops.SD}, {"k2", loops.CD}, {"k6", loops.RD},
	}
	var pts []sweep.Point
	for _, sub := range subjects {
		k, err := loops.ByKey(sub.key)
		if err != nil {
			return nil, err
		}
		for _, npe := range PESweep {
			pts = append(pts, pePoint(k, 0, npe, 32, 256))
		}
	}
	results, err := runPoints(pts)
	if err != nil {
		return nil, err
	}
	speedupAt := map[string]map[int]float64{}
	for si, sub := range subjects {
		s := stats.Series{Label: fmt.Sprintf("%s (%s)", sub.key, sub.cls)}
		speedupAt[sub.key] = map[int]float64{}
		for pi, npe := range PESweep {
			res := results[si*len(PESweep)+pi]
			topo := network.NewMesh2D(npe)
			tm := res.Estimate(cm, topo)
			s.X = append(s.X, float64(npe))
			s.Y = append(s.Y, tm.Speedup)
			speedupAt[sub.key][npe] = tm.Speedup
		}
		fig.Series = append(fig.Series, s)
	}
	o := &Outcome{
		Title:  fig.Title,
		Paper:  "§9 future work: execution-time modeling; §1: MIMD has 'the greatest potential for large-scale parallelism'",
		Figure: fig,
		Text:   fig.Table(),
		Notes: "Pricing accesses (local 1 cycle, cache hit 2, remote round-trip 40 " +
			"plus per-hop wire time on a 2-D mesh) shows the paper's \"large numbers " +
			"of processors may be utilized\" holds exactly for the classes its cache " +
			"rescues — MD and SD scale well, CD scales once cached — and fails for " +
			"RD, which slows down outright, compounded by k6's triangular work " +
			"distribution (the §7.2 caveat that skewed remote-read counts skew the " +
			"load balance).",
	}
	o.Checks = []Check{
		check("MD scales near-linearly", speedupAt["k14frag"][16] > 12,
			"k14frag speedup at 16 PEs = %.2f", speedupAt["k14frag"][16]),
		check("SD scales well (cache absorbs the skew)", speedupAt["k1"][16] > 8,
			"k1 speedup at 16 PEs = %.2f", speedupAt["k1"][16]),
		check("CD scales once cached", speedupAt["k2"][16] > 4,
			"k2 speedup at 16 PEs = %.2f", speedupAt["k2"][16]),
		// Under realistic remote costs the RD loop does not merely scale
		// poorly — it slows down, compounded by its triangular work
		// distribution (the §7.2 caveat: "in cases where the amount of
		// remote reads depends upon which element is being written, the
		// load balance can be skewed").
		check("RD slows down outright (remote cost + triangular imbalance)",
			speedupAt["k6"][16] < 1,
			"k6 speedup at 16 PEs = %.2f", speedupAt["k6"][16]),
	}
	return o, nil
}

// ExtContention routes each run's implied message matrix over real
// topologies and reports hottest-link utilization — quantifying the
// abstract's claim that "the degradation in network performance due to
// multiprocessing is minimal".
func ExtContention() (*Outcome, error) {
	cm := sim.DefaultCostModel()
	keys := []string{"k1", "k2", "k6"}
	ks := make([]*loops.Kernel, len(keys))
	var pts []sweep.Point
	for i, key := range keys {
		k, err := loops.ByKey(key)
		if err != nil {
			return nil, err
		}
		ks[i] = k
		pts = append(pts, pePoint(k, 0, 16, 32, 256))
	}
	results, err := runPoints(pts)
	if err != nil {
		return nil, err
	}
	var txt strings.Builder
	fmt.Fprintf(&txt, "%-10s %-6s %-10s %12s %12s %12s\n",
		"kernel", "class", "topology", "msgs", "max-link", "utilization")
	var checks []Check
	record := map[string]float64{}
	for i, key := range keys {
		res := results[i]
		hc, err := network.NewHypercube(16)
		if err != nil {
			return nil, err
		}
		for _, topo := range []network.Topology{network.Bus{N: 16}, network.Ring{N: 16}, network.NewMesh2D(16), hc} {
			rep := res.Contention(cm, topo)
			fmt.Fprintf(&txt, "%-10s %-6s %-10s %12d %12d %12.4f\n",
				key, ks[i].Class, topo.Name(), rep.TotalMsgs, rep.MaxLinkLoad, rep.Utilization)
			record[key+"/"+topo.Name()] = rep.Utilization
		}
	}
	checks = append(checks,
		check("SD barely loads the network (abstract's claim)",
			record["k1/mesh4x4"] < 0.05, "k1 mesh utilization = %.4f", record["k1/mesh4x4"]),
		check("RD loads it markedly more",
			record["k6/mesh4x4"] > 2*record["k1/mesh4x4"],
			"k6 %.4f vs k1 %.4f", record["k6/mesh4x4"], record["k1/mesh4x4"]),
		check("bus is the contention worst case",
			record["k6/bus"] >= record["k6/mesh4x4"],
			"bus %.4f vs mesh %.4f", record["k6/bus"], record["k6/mesh4x4"]),
	)
	return &Outcome{
		Title: "Extension: link contention per class and topology (16 PEs, ps 32)",
		Paper: "abstract: 'the degradation in network performance due to multiprocessing is minimal'; §9: network contention is future work",
		Text:  txt.String(),
		Notes: "Routing each run's implied message matrix over bus/ring/mesh/hypercube " +
			"shows minimal degradation is a property of the low-remote classes, not " +
			"of the architecture: the SD exemplar keeps the hottest mesh link lightly " +
			"loaded while the RD exemplar loads it several times more and saturates a " +
			"bus first.",
		Checks: checks,
	}, nil
}

// ExtAdvisor closes the §9 loop: classify each kernel dynamically,
// pick the partitioning scheme the class recommends, and verify the
// choice is never worse than the fixed default by more than noise.
func ExtAdvisor() (*Outcome, error) {
	kernels := loops.PaperSet()
	// Classify every kernel concurrently, then sweep both layouts for
	// each in one grid.
	classes, err := sweep.Map(context.Background(), kernels,
		func(_ context.Context, _ int, k *loops.Kernel) (loops.Class, error) {
			cls, _, err := classify.Dynamic(k, 0)
			return cls, err
		})
	if err != nil {
		return nil, err
	}
	var pts []sweep.Point
	for _, k := range kernels {
		for _, kind := range []partition.Kind{partition.KindModulo, partition.KindBlock} {
			cfg := sim.PaperConfig(16, 32)
			cfg.Layout = kind
			pts = append(pts, sweep.Point{Kernel: k, Config: cfg})
		}
	}
	results, err := runPoints(pts)
	if err != nil {
		return nil, err
	}
	var txt strings.Builder
	fmt.Fprintf(&txt, "%-10s %-6s %-12s %10s %10s %10s\n",
		"kernel", "class", "recommended", "modulo %", "block %", "chosen %")
	var checks []Check
	for i, k := range kernels {
		cls := classes[i]
		rec := classify.Recommend(cls)
		mod := results[2*i].RemotePercent()
		blk := results[2*i+1].RemotePercent()
		chosen := mod
		if rec == partition.KindBlock {
			chosen = blk
		}
		fmt.Fprintf(&txt, "%-10s %-6s %-12s %10.2f %10.2f %10.2f\n",
			k.Key, cls, rec, mod, blk, chosen)
		best := mod
		if blk < best {
			best = blk
		}
		// Tolerance: absolute for the low-remote classes (where the
		// advisor's win is large), relative for RD, where the paper's
		// §9 concedes no scheme handles the class and the two layouts
		// differ only marginally (both poor).
		tol := 1.0
		if 0.1*best > tol {
			tol = 0.1 * best
		}
		checks = append(checks, check(
			fmt.Sprintf("%s: advisor within tolerance of best", k.Key),
			chosen <= best+tol,
			"chosen %.2f%%, best %.2f%%", chosen, best))
	}
	return &Outcome{
		Title: "Extension: class-driven partitioning advisor (§9 selectable schemes)",
		Paper: "§9: 'allow the selection of one or the other scheme based on the access distribution class'",
		Text:  txt.String(),
		Notes: "The dynamic classifier's recommendation (division for MD/SD/CD, " +
			"modulo for RD) is within tolerance of the best fixed scheme on all " +
			"paper kernels — halving k1's no-cache remote ratio — while for RD the " +
			"two layouts differ marginally (both poor), exactly the §9 concession.",
		Checks: checks,
	}, nil
}
