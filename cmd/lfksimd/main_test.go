package main

import (
	"flag"
	"slices"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestShardArgsCarryServingFlags pins that a router's shards inherit
// every serving flag it was given, in a form the shard's own flag
// parsing reads back to the same serve.Options.
func TestShardArgsCarryServingFlags(t *testing.T) {
	if got, want := shardArgs(serve.Options{}, "a.addr", ""), []string{"-addr", "127.0.0.1:0", "-addr-file", "a.addr"}; !slices.Equal(got, want) {
		t.Fatalf("defaults: shardArgs = %q, want %q", got, want)
	}

	opts := serve.Options{
		Workers:            3,
		MaxInflight:        5,
		ResultCacheEntries: 7,
		StreamCacheEntries: 11,
		MaxSweepPoints:     8,
		DefaultDeadline:    1500 * time.Millisecond,
	}
	args := shardArgs(opts, "b.addr", "/store")
	fs := flag.NewFlagSet("shard", flag.ContinueOnError)
	var got serve.Options
	var addr, addrFile, captureDir string
	fs.StringVar(&addr, "addr", "", "")
	fs.StringVar(&addrFile, "addr-file", "", "")
	fs.StringVar(&captureDir, "capture-dir", "", "")
	fs.IntVar(&got.Workers, "workers", 0, "")
	fs.IntVar(&got.MaxInflight, "queue", 0, "")
	fs.IntVar(&got.ResultCacheEntries, "result-cache", 0, "")
	fs.IntVar(&got.StreamCacheEntries, "stream-cache", 0, "")
	fs.IntVar(&got.MaxSweepPoints, "max-sweep-points", 0, "")
	fs.DurationVar(&got.DefaultDeadline, "deadline", 0, "")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("shard flags %q do not parse: %v", args, err)
	}
	if got != opts || addr != "127.0.0.1:0" || addrFile != "b.addr" || captureDir != "/store" {
		t.Fatalf("shard flags %q read back as %+v (addr %q, addr-file %q, capture-dir %q), want %+v", args, got, addr, addrFile, captureDir, opts)
	}
}
