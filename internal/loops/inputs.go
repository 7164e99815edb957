package loops

import "math"

// Deterministic input generators. The Livermore benchmark seeds its
// arrays with bland positive data; exact values are immaterial to the
// access-pattern measurements, but they must be reproducible across
// engines, bounded (so recurrences do not overflow), and bounded away
// from zero where used as divisors. inA and inB read tables computed
// once per process (see Series).

var (
	seriesA = NewSeries(func(i int) float64 { return 0.5 + 0.25*math.Sin(0.7*float64(i+1)) })
	seriesB = NewSeries(func(i int) float64 { return 1.0 + 0.5*math.Cos(0.3*float64(i+1)) })
)

// inA returns a value in [0.25, 0.75].
func inA(i int) float64 { return seriesA.At(i) }

// inB returns a value in [0.5, 1.5], safe as a divisor.
func inB(i int) float64 { return seriesB.At(i) }

// inSmall returns a small positive value in (0, 7.5e-4], used for
// recurrence coefficients that must not amplify.
func inSmall(i int) float64 { return 1e-3 * inA(i) }

// pseudoIdx hashes i to a deterministic pseudo-random index in [1, mod],
// used by the particle-in-cell kernels for indirection ("effectively
// random page accesses", §7.1.4).
func pseudoIdx(i, mod int) int {
	if mod <= 0 {
		return 1
	}
	h := uint64(i)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return 1 + int(h%uint64(mod))
}

// clampF clamps v into [lo, hi] (the Fortran AMAX1/AMIN1 idiom of K20).
func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
