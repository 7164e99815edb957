// Package b declares an interface and a struct with a field named like
// one of a.Options.
package b

// Sizer is implemented by a.T.
type Sizer interface{ Size() int }

// Other has a field named like a.Options.Workers.
type Other struct{ Workers int }
