// Package stats provides the measurement vocabulary of Bic, Nagel & Roy
// (1989) §6–§7: every array access is classified as a write (always
// local under owner-computes), a local read, a cached read, or a remote
// read; results are reported as the percentage of reads that are remote
// ("% of Reads Remote") and as per-PE distributions for load-balance
// analysis (Figure 5).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Access classifies one array access.
type Access int

// Access classes (§7: "write (always local), local read, cached read,
// remote read").
const (
	Write Access = iota
	LocalRead
	CachedRead
	RemoteRead
)

// String returns the access class name.
func (a Access) String() string {
	switch a {
	case Write:
		return "write"
	case LocalRead:
		return "local-read"
	case CachedRead:
		return "cached-read"
	case RemoteRead:
		return "remote-read"
	default:
		return fmt.Sprintf("Access(%d)", int(a))
	}
}

// Counters accumulates access counts for one PE or one whole run.
type Counters struct {
	Writes      int64
	LocalReads  int64
	CachedReads int64
	RemoteReads int64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Writes += other.Writes
	c.LocalReads += other.LocalReads
	c.CachedReads += other.CachedReads
	c.RemoteReads += other.RemoteReads
}

// Reads returns the total number of reads of any class.
func (c Counters) Reads() int64 { return c.LocalReads + c.CachedReads + c.RemoteReads }

// Accesses returns reads plus writes.
func (c Counters) Accesses() int64 { return c.Reads() + c.Writes }

// RemotePercent returns the paper's headline metric: the percentage of
// all reads that were remote. Zero reads yields 0.
func (c Counters) RemotePercent() float64 {
	r := c.Reads()
	if r == 0 {
		return 0
	}
	return 100 * float64(c.RemoteReads) / float64(r)
}

// CachedPercent returns the percentage of reads served from the cache.
func (c Counters) CachedPercent() float64 {
	r := c.Reads()
	if r == 0 {
		return 0
	}
	return 100 * float64(c.CachedReads) / float64(r)
}

// String renders the counters compactly.
func (c Counters) String() string {
	return fmt.Sprintf("writes=%d local=%d cached=%d remote=%d (%.2f%% remote)",
		c.Writes, c.LocalReads, c.CachedReads, c.RemoteReads, c.RemotePercent())
}

// PerPE holds one Counters per processing element.
type PerPE []Counters

// Totals sums all PEs.
func (p PerPE) Totals() Counters {
	var t Counters
	for _, c := range p {
		t.Add(c)
	}
	return t
}

// Balance summarizes how evenly a quantity is spread over PEs.
type Balance struct {
	Min, Max  int64
	Mean      float64
	StdDev    float64
	CV        float64 // coefficient of variation (stddev/mean); 0 = perfect
	Imbalance float64 // max/mean; 1 = perfect
}

// BalanceOf computes load-balance statistics for a per-PE series.
func BalanceOf(vals []int64) Balance {
	if len(vals) == 0 {
		return Balance{}
	}
	b := Balance{Min: vals[0], Max: vals[0]}
	var sum float64
	for _, v := range vals {
		if v < b.Min {
			b.Min = v
		}
		if v > b.Max {
			b.Max = v
		}
		sum += float64(v)
	}
	b.Mean = sum / float64(len(vals))
	var ss float64
	for _, v := range vals {
		d := float64(v) - b.Mean
		ss += d * d
	}
	b.StdDev = math.Sqrt(ss / float64(len(vals)))
	if b.Mean != 0 {
		b.CV = b.StdDev / b.Mean
		b.Imbalance = float64(b.Max) / b.Mean
	}
	return b
}

// Extract pulls one field across a PerPE slice.
func (p PerPE) Extract(a Access) []int64 {
	out := make([]int64, len(p))
	for i, c := range p {
		switch a {
		case Write:
			out[i] = c.Writes
		case LocalRead:
			out[i] = c.LocalReads
		case CachedRead:
			out[i] = c.CachedReads
		case RemoteRead:
			out[i] = c.RemoteReads
		}
	}
	return out
}

// Series is one labeled curve of a figure: Y(X) with a legend label,
// e.g. "Cache, ps 32" over PE counts.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a set of series sharing axes, matching one paper figure.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Table renders the figure as an aligned text table: one row per X
// value, one column per series. This is the canonical regeneration
// format for EXPERIMENTS.md.
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	// Header.
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " | %16s", s.Label)
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 12+len(f.Series)*19))
	b.WriteString("\n")
	// Collect the union of X values in order.
	xs := unionX(f.Series)
	for _, x := range xs {
		fmt.Fprintf(&b, "%-12g", x)
		for _, s := range f.Series {
			if y, ok := lookupY(s, x); ok {
				fmt.Fprintf(&b, " | %16.2f", y)
			} else {
				fmt.Fprintf(&b, " | %16s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Chart renders the figure as a coarse ASCII chart (height rows), with
// one letter per series, for terminal inspection of curve shapes.
func (f *Figure) Chart(height int) string {
	if height < 4 {
		height = 4
	}
	xs := unionX(f.Series)
	if len(xs) == 0 {
		return f.Title + "\n(no data)\n"
	}
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for _, y := range s.Y {
			ymin = math.Min(ymin, y)
			ymax = math.Max(ymax, y)
		}
	}
	if ymin > ymax {
		return f.Title + "\n(no data)\n"
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	width := len(xs)
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width*4))
	}
	for si, s := range f.Series {
		mark := byte('A' + si%26)
		for i, x := range s.X {
			col := indexOf(xs, x) * 4
			row := int(math.Round((ymax - s.Y[i]) / (ymax - ymin) * float64(height-1)))
			if row >= 0 && row < height && col < len(grid[row]) {
				grid[row][col] = mark
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [%s vs %s]\n", f.Title, f.YLabel, f.XLabel)
	for r, line := range grid {
		yval := ymax - (ymax-ymin)*float64(r)/float64(height-1)
		fmt.Fprintf(&b, "%8.2f |%s\n", yval, string(line))
	}
	fmt.Fprintf(&b, "%8s +%s\n", "", strings.Repeat("-", width*4))
	fmt.Fprintf(&b, "%8s  ", "")
	for _, x := range xs {
		fmt.Fprintf(&b, "%-4g", x)
	}
	b.WriteString("\n")
	for si, s := range f.Series {
		fmt.Fprintf(&b, "%8s  %c = %s\n", "", byte('A'+si%26), s.Label)
	}
	return b.String()
}

// CSV renders the figure as comma-separated values: a header row of
// series labels, then one row per X value. Missing points are empty
// fields. Labels containing commas or quotes are quoted per RFC 4180.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString(csvQuote(f.XLabel))
	for _, s := range f.Series {
		b.WriteString(",")
		b.WriteString(csvQuote(s.Label))
	}
	b.WriteString("\n")
	for _, x := range unionX(f.Series) {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			b.WriteString(",")
			if y, ok := lookupY(s, x); ok {
				fmt.Fprintf(&b, "%g", y)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func csvQuote(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

func unionX(series []Series) []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

func lookupY(s Series, x float64) (float64, bool) {
	for i, sx := range s.X {
		if sx == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

func indexOf(xs []float64, x float64) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return 0
}
