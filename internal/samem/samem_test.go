package samem

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPageWriteThenRead(t *testing.T) {
	p := NewPage("X", 0, 8)
	if err := p.Write(3, 1.5); err != nil {
		t.Fatal(err)
	}
	v, ok := p.TryRead(3)
	if !ok || v != 1.5 {
		t.Errorf("TryRead = (%v, %v), want (1.5, true)", v, ok)
	}
	if _, ok := p.TryRead(4); ok {
		t.Error("unwritten cell reads as defined")
	}
}

func TestPageDoubleWriteError(t *testing.T) {
	p := NewPage("A", 32, 8)
	if err := p.Write(2, 1); err != nil {
		t.Fatal(err)
	}
	err := p.Write(2, 2)
	if err == nil {
		t.Fatal("double write accepted")
	}
	dw, ok := err.(*DoubleWriteError)
	if !ok {
		t.Fatalf("error type %T, want *DoubleWriteError", err)
	}
	if dw.Array != "A" || dw.Index != 34 {
		t.Errorf("error fields = %+v, want A[34]", dw)
	}
	if !strings.Contains(err.Error(), "A[34]") {
		t.Errorf("error message %q lacks location", err.Error())
	}
	// The original value must be preserved.
	if v, _ := p.TryRead(2); v != 1 {
		t.Errorf("value clobbered by rejected write: %v", v)
	}
}

func TestDoubleWriteErrorAnonymous(t *testing.T) {
	e := &DoubleWriteError{Index: 7}
	if !strings.Contains(e.Error(), "7") {
		t.Errorf("message %q lacks index", e.Error())
	}
}

func TestPageDeferredRead(t *testing.T) {
	p := NewPage("X", 0, 4)
	ch := make(chan float64, 1)
	if _, ok := p.ReadOrWait(1, ch); ok {
		t.Fatal("read of undefined cell returned immediately")
	}
	if p.PendingWaiters() != 1 {
		t.Errorf("PendingWaiters = %d, want 1", p.PendingWaiters())
	}
	if err := p.Write(1, 42); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-ch:
		if v != 42 {
			t.Errorf("deferred read delivered %v, want 42", v)
		}
	case <-time.After(time.Second):
		t.Fatal("deferred read never completed")
	}
	if p.PendingWaiters() != 0 {
		t.Errorf("waiters not drained: %d", p.PendingWaiters())
	}
	// A later read is immediate.
	if v, ok := p.ReadOrWait(1, ch); !ok || v != 42 {
		t.Errorf("post-write read = (%v, %v)", v, ok)
	}
}

func TestPageManyDeferredReaders(t *testing.T) {
	p := NewPage("X", 0, 4)
	const readers = 10
	chans := make([]chan float64, readers)
	for i := range chans {
		chans[i] = make(chan float64, 1)
		if _, ok := p.ReadOrWait(2, chans[i]); ok {
			t.Fatal("premature value")
		}
	}
	if err := p.Write(2, 7); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		select {
		case v := <-ch:
			if v != 7 {
				t.Errorf("reader %d got %v", i, v)
			}
		case <-time.After(time.Second):
			t.Fatalf("reader %d starved", i)
		}
	}
}

func TestPageConcurrentReadersOneWriter(t *testing.T) {
	// Write-before-read enforced under concurrency: many goroutines read
	// cells before/while a single owner defines them.
	p := NewPage("X", 0, 64)
	var wg sync.WaitGroup
	results := make([]float64, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch := make(chan float64, 1)
			if v, ok := p.ReadOrWait(i, ch); ok {
				results[i] = v
				return
			}
			results[i] = <-ch
		}(i)
	}
	for i := 0; i < 64; i++ {
		if err := p.Write(i, float64(i)*2); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, v := range results {
		if v != float64(i)*2 {
			t.Errorf("cell %d read %v, want %v", i, v, float64(i)*2)
		}
	}
}

func TestPageSnapshotIsolation(t *testing.T) {
	p := NewPage("X", 0, 4)
	if err := p.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	vals, def := p.Snapshot()
	if !def[0] || vals[0] != 1 || def[1] {
		t.Errorf("snapshot = %v %v", vals, def)
	}
	// Later writes must not leak into an old snapshot (it is a copy).
	if err := p.Write(1, 9); err != nil {
		t.Fatal(err)
	}
	if def[1] || vals[1] != 0 {
		t.Error("snapshot aliased live page")
	}
}

func TestPageFullAndDefinedCount(t *testing.T) {
	p := NewPage("X", 0, 3)
	if p.Full() {
		t.Error("empty page reports Full")
	}
	for i := 0; i < 3; i++ {
		if p.DefinedCount() != i {
			t.Errorf("DefinedCount = %d, want %d", p.DefinedCount(), i)
		}
		if err := p.Write(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Full() {
		t.Error("full page not Full")
	}
	if len(p.vals) != 3 || p.Base() != 0 {
		t.Errorf("len/Base = %d/%d", len(p.vals), p.Base())
	}
}

func TestPageFill(t *testing.T) {
	p := NewPage("Y", 0, 4)
	for i := 0; i < 4; i++ {
		if err := p.Fill(i, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Full() {
		t.Error("filled page not full")
	}
	// Fill is still single-assignment.
	if err := p.Fill(0, 9); err == nil {
		t.Error("refill accepted")
	}
}

func TestTrackerBasics(t *testing.T) {
	tr := NewTracker("Z", 10)
	if len(tr.written) != 10 || tr.Count() != 0 {
		t.Errorf("fresh tracker len=%d Count=%d", len(tr.written), tr.Count())
	}
	if err := tr.Mark(4); err != nil {
		t.Fatal(err)
	}
	if !tr.written[4] || tr.written[5] {
		t.Error("written bits wrong")
	}
	if tr.Count() != 1 {
		t.Errorf("Count = %d", tr.Count())
	}
	err := tr.Mark(4)
	if err == nil {
		t.Fatal("double mark accepted")
	}
	dw, ok := err.(*DoubleWriteError)
	if !ok || dw.Array != "Z" || dw.Index != 4 {
		t.Errorf("error = %v", err)
	}
}

func TestPropertyTrackerMarkOncePerIndex(t *testing.T) {
	// Property: for any sequence of indices, the first Mark of each index
	// succeeds and every repeat fails, and Count equals the number of
	// distinct indices.
	f := func(raw []uint8) bool {
		tr := NewTracker("P", 256)
		distinct := map[int]bool{}
		for _, r := range raw {
			i := int(r)
			err := tr.Mark(i)
			if distinct[i] && err == nil {
				return false
			}
			if !distinct[i] && err != nil {
				return false
			}
			distinct[i] = true
		}
		return tr.Count() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyPageWriteReadConsistency(t *testing.T) {
	// Property: after writing arbitrary (index, value) pairs with distinct
	// indices, every TryRead returns exactly the value written.
	f := func(vals []float64) bool {
		n := len(vals)
		if n == 0 {
			return true
		}
		if n > 128 {
			vals = vals[:128]
			n = 128
		}
		p := NewPage("Q", 0, n)
		for i, v := range vals {
			if err := p.Write(i, v); err != nil {
				return false
			}
		}
		for i, v := range vals {
			got, ok := p.TryRead(i)
			if !ok || got != v {
				return false
			}
		}
		return p.Full()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
