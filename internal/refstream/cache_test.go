package refstream

import (
	"sync"
	"testing"
	"time"

	"repro/internal/loops"
	"repro/internal/obs"
)

func mustKernel(t *testing.T, key string) *loops.Kernel {
	t.Helper()
	k, err := loops.ByKey(key)
	if err != nil {
		t.Fatalf("ByKey(%q): %v", key, err)
	}
	return k
}

// TestCacheConcurrentGetCapturesOnce is the dedup contract: many
// concurrent Gets of one (kernel, N) perform exactly one capture, share
// the identical stream, and every Get beyond the first counts as a hit.
func TestCacheConcurrentGetCapturesOnce(t *testing.T) {
	k := mustKernel(t, "k1")
	reg := obs.NewRegistry()
	c := NewCache(8)
	c.Captures = reg.Counter("captures")
	c.Hits = reg.Counter("hits")

	const goroutines = 16
	var (
		wg      sync.WaitGroup
		streams [goroutines]*Stream
		errs    [goroutines]error
	)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i], errs[i] = c.GetScratch(nil, k, k.MinN)
		}(i)
	}
	wg.Wait()

	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("Get %d: %v", i, errs[i])
		}
		if streams[i] == nil {
			t.Fatalf("Get %d returned a nil stream", i)
		}
		if streams[i] != streams[0] {
			t.Fatalf("Get %d returned a different stream object: captures were not shared", i)
		}
	}
	if got := c.Captures.Value(); got != 1 {
		t.Fatalf("captures = %d, want exactly 1 for %d concurrent Gets", got, goroutines)
	}
	if got := c.Hits.Value(); got != goroutines-1 {
		t.Fatalf("hits = %d, want %d", got, goroutines-1)
	}
	if got := c.entries.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

// TestCacheClampNSharesKey verifies the key uses the clamped problem
// size: n=0 (kernel default) and the explicit default are one entry.
func TestCacheClampNSharesKey(t *testing.T) {
	k := mustKernel(t, "k12")
	reg := obs.NewRegistry()
	c := NewCache(8)
	c.Captures = reg.Counter("captures")

	a, err := c.GetScratch(nil, k, 0)
	if err != nil {
		t.Fatalf("Get(k, 0): %v", err)
	}
	b, err := c.GetScratch(nil, k, k.DefaultN)
	if err != nil {
		t.Fatalf("Get(k, DefaultN): %v", err)
	}
	if a != b {
		t.Fatal("n=0 and n=DefaultN produced distinct entries; key must clamp")
	}
	if got := c.Captures.Value(); got != 1 {
		t.Fatalf("captures = %d, want 1", got)
	}
}

// TestCacheEviction bounds the cache: a capacity-1 cache holds only the
// most recent stream and re-captures an evicted one on demand.
func TestCacheEviction(t *testing.T) {
	k1 := mustKernel(t, "k1")
	k2 := mustKernel(t, "k2")
	reg := obs.NewRegistry()
	c := NewCache(1)
	c.Captures = reg.Counter("captures")

	if _, err := c.GetScratch(nil, k1, k1.MinN); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetScratch(nil, k2, k2.MinN); err != nil {
		t.Fatal(err)
	}
	if got := c.entries.Len(); got != 1 {
		t.Fatalf("Len = %d after overflow, want 1", got)
	}
	if got := c.Captures.Value(); got != 2 {
		t.Fatalf("captures = %d, want 2", got)
	}
	// k1 was evicted: a new Get re-captures rather than erroring.
	if _, err := c.GetScratch(nil, k1, k1.MinN); err != nil {
		t.Fatal(err)
	}
	if got := c.Captures.Value(); got != 3 {
		t.Fatalf("captures after re-Get = %d, want 3", got)
	}
}

// TestSaverOffWaitersPath: the goroutine that captured persists the
// stream after publishing it, so a second Get of the same key returns
// while the Saver is still blocked (on a slow disk, an fsync).
func TestSaverOffWaitersPath(t *testing.T) {
	k := mustKernel(t, "k1")
	c := NewCache(8)
	entered, release := make(chan struct{}), make(chan struct{})
	c.Saver = func(*Stream) {
		close(entered)
		<-release
	}
	first := make(chan *Stream)
	go func() {
		st, err := c.GetScratch(nil, k, k.MinN)
		if err != nil {
			t.Error(err)
		}
		first <- st
	}()
	<-entered

	second := make(chan *Stream)
	go func() {
		st, err := c.GetScratch(nil, k, k.MinN)
		if err != nil {
			t.Error(err)
		}
		second <- st
	}()
	select {
	case st := <-second:
		close(release)
		if st != <-first {
			t.Fatal("second Get returned a different stream")
		}
	case <-time.After(5 * time.Second):
		close(release)
		<-first
		<-second
		t.Fatal("second Get of the key waited for the first capture's Saver")
	}
}
