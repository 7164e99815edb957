package trace

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSpanParentChild(t *testing.T) {
	tr := New("id-1", "/v1/classify")
	root := tr.Start("flight_wait")
	child := tr.StartChild(root, "capture")
	if d := child.End(); d < 0 {
		t.Fatalf("child duration = %v, want >= 0", d)
	}
	tr.Event(root, "batch_configs", 24, "configs")
	root.End()
	tr.Finish(200)

	o := tr.Snapshot()
	if o.ID != "id-1" || o.Route != "/v1/classify" || o.Status != 200 || !o.Done {
		t.Fatalf("snapshot header wrong: %+v", o)
	}
	if len(o.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(o.Spans))
	}
	if o.Spans[0].Parent != -1 {
		t.Fatalf("root parent = %d, want -1", o.Spans[0].Parent)
	}
	if o.Spans[1].Parent != 0 || o.Spans[2].Parent != 0 {
		t.Fatalf("children not parented under root: %+v", o.Spans)
	}
	if o.Spans[2].Unit != "configs" || o.Spans[2].Value != 24 {
		t.Fatalf("event span wrong: %+v", o.Spans[2])
	}
	if o.Spans[0].Value < o.Spans[1].Value {
		t.Fatalf("root (%d µs) shorter than its child (%d µs)", o.Spans[0].Value, o.Spans[1].Value)
	}
}

func TestSpanBoundDrops(t *testing.T) {
	tr := New("id", "r")
	for i := 0; i < MaxSpans+10; i++ {
		tr.Start(fmt.Sprintf("s%d", i)).End()
	}
	o := tr.Snapshot()
	if len(o.Spans) != MaxSpans {
		t.Fatalf("spans stored = %d, want the MaxSpans bound %d", len(o.Spans), MaxSpans)
	}
	if o.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", o.Dropped)
	}
}

func TestCountsBoundedAndMerged(t *testing.T) {
	tr := New("id", "r")
	tr.Count("cache_hits", 1)
	tr.Count("cache_hits", 2)
	for i := 0; i < MaxCounts+5; i++ {
		tr.Count(fmt.Sprintf("c%d", i), 1)
	}
	o := tr.Snapshot()
	if o.Counts["cache_hits"] != 3 {
		t.Fatalf("cache_hits = %d, want 3 (merged)", o.Counts["cache_hits"])
	}
	if len(o.Counts) != MaxCounts {
		t.Fatalf("distinct counts = %d, want the MaxCounts bound %d", len(o.Counts), MaxCounts)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	sp := tr.Start("x")
	time.Sleep(time.Millisecond)
	if d := sp.End(); d < time.Millisecond {
		t.Fatalf("End on nil trace = %v, want the measured wall duration", d)
	}
	tr.StartChild(sp, "y").End()
	tr.Event(sp, "e", 1, "u")
	tr.Count("c", 1)
	tr.Finish(200)
	if o := tr.Snapshot(); o.ID != "" || len(o.Spans) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", o)
	}

	var r *Ring
	r.Add(New("a", "b"))
	if r.Get("a") != nil || r.Len() != 0 || r.Recent(5) != nil {
		t.Fatal("nil ring not inert")
	}
}

func TestStageTotals(t *testing.T) {
	tr := New("id", "r")
	a := tr.Start("capture")
	a.End()
	b := tr.Start("capture")
	b.End()
	tr.Event(SpanRef{}, "batch_configs", 9, "configs")
	open := tr.Start("open")
	_ = open
	totals := tr.Snapshot().StageTotals()
	if _, ok := totals["capture"]; !ok {
		t.Fatalf("capture missing from totals %v", totals)
	}
	if _, ok := totals["batch_configs"]; ok {
		t.Fatalf("logical event leaked into wall totals %v", totals)
	}
	if _, ok := totals["open"]; ok {
		t.Fatalf("open span leaked into totals %v", totals)
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := New("id", "r")
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace did not round-trip the context")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context yielded a trace")
	}
	if NewContext(context.Background(), nil) != context.Background() {
		t.Fatal("NewContext(nil) should return ctx unchanged")
	}
}

func TestNewIDUniqueAndSanitize(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewID()
		if seen[id] {
			t.Fatalf("duplicate generated ID %q", id)
		}
		seen[id] = true
		if SanitizeID(id) != id {
			t.Fatalf("generated ID %q does not survive its own sanitizer", id)
		}
	}
	for _, bad := range []string{"", "has space", "semi;colon", "näh", string(make([]byte, MaxIDLen+1))} {
		if got := SanitizeID(bad); got != "" {
			t.Fatalf("SanitizeID(%q) = %q, want rejection", bad, got)
		}
	}
	if got := SanitizeID("ok-id_1.2"); got != "ok-id_1.2" {
		t.Fatalf("SanitizeID rejected a legal ID: %q", got)
	}
}

func TestRingEvictionAndLookup(t *testing.T) {
	r := NewRing()
	const extra = 2
	for i := 1; i <= RingEntries+extra; i++ {
		r.Add(New(fmt.Sprintf("t%d", i), "r"))
	}
	if r.Len() != RingEntries {
		t.Fatalf("ring len = %d, want %d", r.Len(), RingEntries)
	}
	if r.Get("t1") != nil || r.Get("t2") != nil {
		t.Fatal("evicted traces still retrievable")
	}
	newest := fmt.Sprintf("t%d", RingEntries+extra)
	if tr := r.Get(newest); tr == nil || tr.id != newest {
		t.Fatal("newest trace not retrievable")
	}
	recent := r.Recent(0)
	if len(recent) != RingEntries || recent[0].id != newest || recent[RingEntries-1].id != "t3" {
		t.Fatalf("Recent = %d entries from %s to %s, want %d from %s to t3",
			len(recent), recent[0].id, recent[len(recent)-1].id, RingEntries, newest)
	}
	if got := r.Recent(2); len(got) != 2 {
		t.Fatalf("Recent(2) = %d entries", len(got))
	}
}

// TestConcurrentSpans exercises the lock paths under the race
// detector: one goroutine playing the request (root spans, counts),
// others playing workers (child spans, events), plus snapshots.
func TestConcurrentSpans(t *testing.T) {
	tr := New("id", "r")
	root := tr.Start("flight_wait")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.StartChild(root, "capture").End()
				tr.Event(root, "events", int64(i), "events")
				tr.Count("cache_misses", 1)
				_ = tr.Snapshot()
			}
		}()
	}
	wg.Wait()
	root.End()
	tr.Finish(200)
	o := tr.Snapshot()
	if len(o.Spans)+o.Dropped != 1+4*50*2 {
		t.Fatalf("spans %d + dropped %d != %d attempted", len(o.Spans), o.Dropped, 1+4*50*2)
	}
	if o.Counts["cache_misses"] != 200 {
		t.Fatalf("count = %d, want 200", o.Counts["cache_misses"])
	}
}
