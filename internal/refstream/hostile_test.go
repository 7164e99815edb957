package refstream

// hostile_test.go — the recording engine does the counting engine's
// single-assignment checks, not a subset of them: for every way a
// kernel can break the contract, CaptureScratch and a direct sim.Run
// must fail with the same diagnosis, and the scratch the failure ran on
// must be as good as new afterwards.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/loops"
	"repro/internal/sim"
)

// hostileKernel wraps a body over OUT (undefined) and IN (initialized),
// both of n+1 cells.
func hostileKernel(key string, body func(c *loops.Ctx, out, in *loops.Arr, n int)) *loops.Kernel {
	return &loops.Kernel{
		Key: key, Name: key, DefaultN: 4, MinN: 1,
		Arrays: func(n int) []loops.Spec {
			return []loops.Spec{
				{Name: "OUT", Dims: []int{n + 1}},
				{Name: "IN", Dims: []int{n + 1}, Init: loops.InitAll(func(i int) float64 { return float64(i) + 0.5 })},
			}
		},
		Run: func(c *loops.Ctx, n int) {
			body(c, c.A("OUT"), c.A("IN"), n)
		},
		Outputs: []string{"OUT"},
	}
}

func hostileKernels() []*loops.Kernel {
	one := func() float64 { return 1 }
	return []*loops.Kernel{
		hostileKernel("double-write", func(c *loops.Ctx, out, in *loops.Arr, n int) {
			out.Set(one, 1)
			out.Set(func() float64 { return in.Get(1) }, 1)
		}),
		hostileKernel("write-to-input", func(c *loops.Ctx, out, in *loops.Arr, n int) {
			in.Set(one, 0)
		}),
		hostileKernel("read-undefined", func(c *loops.Ctx, out, in *loops.Arr, n int) {
			out.Set(func() float64 { return out.Get(2) + in.Get(0) }, 1)
		}),
		hostileKernel("control-read-undefined", func(c *loops.Ctx, out, in *loops.Arr, n int) {
			_ = out.Get(0)
		}),
		hostileKernel("nested-assignment", func(c *loops.Ctx, out, in *loops.Arr, n int) {
			out.Set(func() float64 {
				out.Set(one, 2)
				return in.Get(1)
			}, 1)
		}),
		hostileKernel("reduce-in-assignment", func(c *loops.Ctx, out, in *loops.Arr, n int) {
			out.Set(func() float64 {
				return c.ReduceSum(in, 0, n, func(i int) float64 { return in.Get(i) })
			}, 1)
		}),
		hostileKernel("assignment-in-term", func(c *loops.Ctx, out, in *loops.Arr, n int) {
			c.ReduceSum(in, 0, n, func(i int) float64 {
				out.Set(one, i)
				return in.Get(i)
			})
		}),
		hostileKernel("reduce-in-term", func(c *loops.Ctx, out, in *loops.Arr, n int) {
			c.ReduceMax(in, 0, n, func(i int) float64 {
				v, _ := c.ReduceMin(in, 0, n, func(j int) float64 { return in.Get(j) })
				return v
			})
		}),
		hostileKernel("out-of-range", func(c *loops.Ctx, out, in *loops.Arr, n int) {
			out.Set(func() float64 { return in.Get(n + 1) }, 1)
		}),
		hostileKernel("out-of-range-write", func(c *loops.Ctx, out, in *loops.Arr, n int) {
			out.Set(one, -1)
		}),
	}
}

// directError runs k on the counting engine, reporting a panic the way
// CaptureScratch's containment words it.
func directError(sc *sim.Scratch, k *loops.Kernel) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("kernel panicked: %v", p)
		}
	}()
	_, err = sc.Run(k, 0, sim.PaperConfig(4, 2))
	return err
}

func TestHostileKernelsFailLikeDirectRuns(t *testing.T) {
	k1, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	wantStream, err := Capture(k1, 64)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, _ := wantStream.MarshalBinary()
	wantRun, err := sim.Run(k1, 64, sim.PaperConfig(4, 8))
	if err != nil {
		t.Fatal(err)
	}

	sc := sim.NewScratch() // one scratch through every failure
	for _, k := range hostileKernels() {
		direct := directError(sim.NewScratch(), k)
		if direct == nil {
			t.Fatalf("%s: the counting engine accepts it; the table is not hostile", k.Key)
		}
		_, cerr := CaptureScratch(sc, k, 0)
		if cerr == nil {
			t.Errorf("%s: captured; direct run fails with %q", k.Key, direct)
			continue
		}
		prefix := fmt.Sprintf("refstream: capturing %s/n=%d: ", k.Key, k.DefaultN)
		got, ok := strings.CutPrefix(cerr.Error(), prefix)
		if !ok || got != direct.Error() {
			t.Errorf("%s: capture fails with\n  %q\nwant %q followed by the direct run's\n  %q", k.Key, cerr, prefix, direct)
		}

		// The failure — including a panic mid-assignment — must leave
		// nothing behind in the scratch, for either engine.
		st, err := CaptureScratch(sc, k1, 64)
		if err != nil {
			t.Fatalf("after %s: capture on the same scratch: %v", k.Key, err)
		}
		if b, _ := st.MarshalBinary(); !bytes.Equal(b, wantBytes) {
			t.Errorf("after %s: the scratch captures k1 differently", k.Key)
		}
		res, err := sc.Run(k1, 64, sim.PaperConfig(4, 8))
		if err != nil {
			t.Fatalf("after %s: run on the same scratch: %v", k.Key, err)
		}
		if !reflect.DeepEqual(res, wantRun) {
			t.Errorf("after %s: the scratch runs k1 differently", k.Key)
		}
	}
}
