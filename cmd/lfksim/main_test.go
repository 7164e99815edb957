package main

import "testing"

// TestValidateFlags covers the CLI's input validation satellite: bad
// values produce errors, valid defaults pass.
func TestValidateFlags(t *testing.T) {
	if err := validateFlags(false, "", "", 8, 32, 256, 0, 0); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	cases := []struct {
		name string
		err  bool
		all  bool
		exp  string
		kern string
		npe  int
		ps   int
		ce   int
		n    int
		w    int
	}{
		{name: "all+exp", err: true, all: true, exp: "fig1", npe: 8, ps: 32},
		{name: "all+kernel", err: true, all: true, kern: "k1", npe: 8, ps: 32},
		{name: "exp+kernel", err: true, exp: "fig1", kern: "k1", npe: 8, ps: 32},
		{name: "zero npe", err: true, npe: 0, ps: 32},
		{name: "negative ps", err: true, npe: 8, ps: -1},
		{name: "negative cache", err: true, npe: 8, ps: 32, ce: -5},
		{name: "negative n", err: true, npe: 8, ps: 32, n: -1},
		{name: "negative workers", err: true, npe: 8, ps: 32, w: -2},
		{name: "valid kernel run", npe: 4, ps: 64, ce: 128, n: 100, kern: "k1"},
	}
	for _, c := range cases {
		err := validateFlags(c.all, c.exp, c.kern, c.npe, c.ps, c.ce, c.n, c.w)
		if (err != nil) != c.err {
			t.Errorf("%s: err = %v, want error=%v", c.name, err, c.err)
		}
	}
}
