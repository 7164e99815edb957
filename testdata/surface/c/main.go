// Command c is the fixture's program: it uses what a and b export.
package main

import (
	"fixture/a"
	"fixture/b"
)

func main() {
	var s b.Sizer = a.T{}
	var err error = &a.E{}
	_, _ = s, err
	_ = a.Options{Depth: 1}
	_ = b.Other{Workers: 2}
}
