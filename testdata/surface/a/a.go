// Package a holds one case of each census rule.
package a

// Options is the fixture's option struct. Package c sets Depth; it
// sets Workers only on b.Other, a different struct, so Workers is
// flagged.
type Options struct {
	Workers int
	Depth   int
}

// T is used by package c.
type T struct{}

// Unused has no use: flagged.
func (T) Unused() {}

// Countdown has no use but its own recursive call: flagged.
func Countdown(n int) int {
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Size implements b.Sizer.
func (T) Size() int { return 0 }

// E is an error that wraps another.
type E struct{ Err error }

// Error implements error.
func (e *E) Error() string { return "e: " + e.Err.Error() }

// Unwrap implements the interface errors.Unwrap asserts.
func (e *E) Unwrap() error { return e.Err }

// ForExample is used only by an Example.
func ForExample() int { return 1 }

// ForOtherTest is used only by package b's test.
func ForOtherTest() int { return 2 }
