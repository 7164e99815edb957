package network

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestFaultConfigValidate(t *testing.T) {
	bad := []FaultConfig{
		{Drop: -0.1},
		{Drop: 1.5},
		{Dup: 2},
		{Delay: -1},
		{Stall: 1.01},
		{MaxDelay: -time.Millisecond},
		{MaxStall: -time.Millisecond},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
		if _, err := NewFaults(cfg, 2); err == nil {
			t.Errorf("NewFaults accepted config %d (%+v)", i, cfg)
		}
	}
	good := FaultConfig{Seed: 1, Drop: 0.5, Dup: 0.5, Delay: 0.5, Stall: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if _, err := NewFaults(good, 0); err == nil {
		t.Error("zero-PE injector accepted")
	}
}

func TestFaultDecisionsDeterministic(t *testing.T) {
	// Two injectors with the same seed must make bit-identical decisions
	// for the same per-link traffic order; a different seed must diverge.
	cfg := FaultConfig{Seed: 42, Drop: 0.3, Dup: 0.2, Delay: 0.2, MaxDelay: time.Millisecond}
	a, err := NewFaults(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFaults(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			for i := 0; i < 64; i++ {
				va, vb := a.decide(src, dst), b.decide(src, dst)
				if va != vb {
					t.Fatalf("link %d->%d msg %d: %+v vs %+v", src, dst, i, va, vb)
				}
				if va.drop || va.dup || va.delay > 0 {
					diverged = true
				}
			}
		}
	}
	if !diverged {
		t.Error("no fault decisions at 30% drop over 1024 messages")
	}
	other, err := NewFaults(FaultConfig{Seed: 43, Drop: 0.3, Dup: 0.2, Delay: 0.2, MaxDelay: time.Millisecond}, 4)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 64; i++ {
		va := a.decide(0, 1)
		if va != other.decide(0, 1) {
			same = false
		}
	}
	if same {
		t.Error("seeds 42 and 43 made identical decisions on 64 messages")
	}
}

func TestFaultPartitionAlwaysDrops(t *testing.T) {
	f, err := NewFaults(FaultConfig{Seed: 1, Partition: [][2]int{{1, 0}}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if v := f.decide(1, 0); !v.drop {
			t.Fatalf("message %d crossed a partitioned link", i)
		}
		if v := f.decide(0, 1); v.drop {
			t.Fatalf("message %d dropped on the healthy reverse link", i)
		}
	}
}

func TestFaultsOnlyPageTraffic(t *testing.T) {
	// Control-plane traffic must never be faulted: a Drop=1 injector
	// still delivers reductions, reinit grants and halts.
	nw, err := New(2, Bus{N: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFaults(FaultConfig{Seed: 1, Drop: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.InjectFaults(f); err != nil {
		t.Fatal(err)
	}
	for _, typ := range []MsgType{ReduceSend, ReduceBcast, ReinitRequest, ReinitGrant, Halt} {
		if err := nw.Send(Message{Type: typ, Src: 0, Dst: 1}); err != nil {
			t.Fatal(err)
		}
		got := <-nw.Inbox(1)
		if got.Type != typ {
			t.Fatalf("control message %v arrived as %v", typ, got.Type)
		}
	}
	if err := nw.Send(Message{Type: PageRequest, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-nw.Inbox(1):
		t.Fatalf("page message %v crossed a Drop=1 link", m.Type)
	default:
	}
	if s := f.Stats(); s.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", s.Dropped)
	}
}

func TestFaultsDuplicateAccountedAsRedundant(t *testing.T) {
	// An injected duplicate shows up in FaultStats.RedundantBytes, never
	// in the network's clean counters.
	nw, err := New(2, Bus{N: 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFaults(FaultConfig{Seed: 1, Dup: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.InjectFaults(f); err != nil {
		t.Fatal(err)
	}
	msg := Message{Type: PageReply, Src: 0, Dst: 1, Payload: make([]float64, 4)}
	if err := nw.Send(msg); err != nil {
		t.Fatal(err)
	}
	f.Close() // flush the duplicate's delayed delivery
	if got := nw.Totals().Sent; got != 1 {
		t.Errorf("clean counter Sent = %d, want 1 (duplicates account separately)", got)
	}
	s := f.Stats()
	if s.Duplicated != 1 {
		t.Errorf("Duplicated = %d, want 1", s.Duplicated)
	}
	if want := int64(msg.Size()); s.RedundantBytes != want {
		t.Errorf("RedundantBytes = %d, want %d", s.RedundantBytes, want)
	}
	// Original plus duplicate both arrive (order unspecified).
	for i := 0; i < 2; i++ {
		select {
		case <-nw.Inbox(1):
		default:
			t.Fatalf("only %d copies arrived, want 2", i)
		}
	}
}

func TestFaultsCloseDrainsDelayedDeliveries(t *testing.T) {
	// Close must wait out (or abandon) every delayed copy so that
	// CloseInboxes never races a late send onto a closed channel.
	nw, err := New(2, Bus{N: 2}, 64)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFaults(FaultConfig{Seed: 9, Delay: 1, MaxDelay: 50 * time.Millisecond}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.InjectFaults(f); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := nw.Send(Message{Type: PageRequest, Src: 0, Dst: 1}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	nw.CloseInboxes() // panics if a delayed copy is still in flight
	delivered := 0
	for range nw.Inbox(1) {
		delivered++
	}
	s := f.Stats()
	if int64(delivered)+s.Dropped != 32 {
		t.Errorf("delivered %d + abandoned %d != 32 sent", delivered, s.Dropped)
	}
	f.Close() // idempotent
}

func TestInjectFaultsSizeMismatch(t *testing.T) {
	nw, err := New(4, Bus{N: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFaults(FaultConfig{Seed: 1, Drop: 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.InjectFaults(f); err == nil {
		t.Error("mismatched injector accepted")
	}
	if nw.faults != nil {
		t.Error("mismatched injector attached")
	}
}

func TestReplyFullChannelIsErrorNotPanic(t *testing.T) {
	nw, err := New(2, Bus{N: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := Message{Type: PageRequest, Src: 0, Dst: 1, Reply: make(chan Message, 1)}
	rep := Message{Type: PageReply, Src: 1, Dst: 0}
	if err := nw.Reply(req, rep); err != nil {
		t.Fatalf("first reply: %v", err)
	}
	err = nw.Reply(req, rep) // buffer of 1 is now full
	if err == nil {
		t.Fatal("second reply into a full channel succeeded")
	}
	if !errors.Is(err, ErrReplyFull) {
		t.Errorf("error %v does not wrap ErrReplyFull", err)
	}
}

func TestSendAbortUnblocksOnAbort(t *testing.T) {
	nw, err := New(2, Bus{N: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Fill PE 1's single-slot inbox so the next send must block.
	if err := nw.Send(Message{Type: PageRequest, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	abort := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- nw.SendAbort(Message{Type: PageRequest, Src: 0, Dst: 1}, abort)
	}()
	select {
	case err := <-done:
		t.Fatalf("send into a full inbox returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(abort)
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "aborted") {
			t.Errorf("aborted send returned %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("SendAbort did not unblock on abort")
	}
}

func TestCloseInboxesIdempotent(t *testing.T) {
	nw, err := New(2, Bus{N: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	nw.CloseInboxes()
	nw.CloseInboxes() // second call must be a no-op, not a double-close panic
	if _, open := <-nw.Inbox(0); open {
		t.Error("inbox still open after CloseInboxes")
	}
}
