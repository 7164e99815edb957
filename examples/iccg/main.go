// ICCG: the cyclic-distribution class (Figure 2), plus trace-driven
// cache evaluation — capture the kernel's reference stream once, then
// classify it under other cache sizes without re-running the kernel.
//
//	go run ./examples/iccg
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/loops"
	"repro/internal/refstream"
	"repro/internal/sim"
)

func main() {
	fmt.Println("ICCG (Livermore kernel 2): the write index advances half as fast")
	fmt.Println("as the read index, so reads jump from page to page. Without a")
	fmt.Println("cache nearly every read is remote; the page cache collapses it.")
	fmt.Println()

	for _, npe := range []int{2, 8, 32} {
		nc, err := repro.Simulate("k2", 1024, repro.NoCacheConfig(npe, 32))
		if err != nil {
			log.Fatal(err)
		}
		wc, err := repro.Simulate("k2", 1024, repro.PaperConfig(npe, 32))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d PEs: no cache %6.2f%% remote | 256-elem cache %5.2f%%\n",
			npe, nc.Totals.RemotePercent(), wc.Totals.RemotePercent())
	}

	// Capture the reference stream once...
	k, err := loops.ByKey("k2")
	if err != nil {
		log.Fatal(err)
	}
	st, err := refstream.Capture(k, 1024)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncaptured %d reference events; classifying them under other caches at 8 PEs:\n", st.Events())

	// ...then classify it under different cache sizes without
	// re-executing the kernel (classic trace-driven cache simulation).
	r := refstream.NewReplayer()
	for _, ce := range []int{0, 64, 256, 1024} {
		cfg := sim.PaperConfig(8, 32)
		cfg.CacheElems = ce
		res, err := r.Run(st, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  cache %5d elements -> %6.2f%% remote\n", ce, res.Totals.RemotePercent())
	}
}
