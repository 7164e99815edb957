package hostproc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/network"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Error("zero PEs accepted")
	}
}

func TestRegisterAndDefaults(t *testing.T) {
	c, err := New(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(6, -1); err != nil {
		t.Fatal(err)
	}
	// Default host spreading: array mod NPE.
	if h, _ := c.Host(6); h != 2 {
		t.Errorf("host = %d, want 2", h)
	}
	if err := c.Register(6, -1); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := c.Register(7, 9); err == nil {
		t.Error("out-of-range host accepted")
	}
	if _, err := c.Host(99); err == nil {
		t.Error("unknown array accepted")
	}
	if _, err := c.Version(99); err == nil {
		t.Error("unknown array version accepted")
	}
}

func TestReinitBarrier(t *testing.T) {
	// No PE may observe the new version until every PE has requested
	// re-initialization: the paper's host-processor gathering point.
	const npe = 8
	c, err := New(npe, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(0, -1); err != nil {
		t.Fatal(err)
	}
	var reached int32
	var wg sync.WaitGroup
	versions := make([]int, npe)
	for pe := 0; pe < npe; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			if pe == npe-1 {
				// Give the others time to block on the barrier.
				time.Sleep(20 * time.Millisecond)
				if n := atomic.LoadInt32(&reached); n != 0 {
					t.Errorf("%d PEs passed the barrier before the last vote", n)
				}
			}
			v, err := c.RequestReinit(0, pe)
			if err != nil {
				t.Error(err)
				return
			}
			atomic.AddInt32(&reached, 1)
			versions[pe] = v
		}(pe)
	}
	wg.Wait()
	for pe, v := range versions {
		if v != 1 {
			t.Errorf("PE %d saw version %d, want 1", pe, v)
		}
	}
	if v, _ := c.Version(0); v != 1 {
		t.Errorf("array version = %d", v)
	}
}

func TestReinitMultipleRounds(t *testing.T) {
	const npe, rounds = 4, 5
	c, _ := New(npe, nil)
	if err := c.Register(0, -1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for pe := 0; pe < npe; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				v, err := c.RequestReinit(0, pe)
				if err != nil {
					t.Error(err)
					return
				}
				if v != r {
					t.Errorf("PE %d round %d saw version %d", pe, r, v)
					return
				}
			}
		}(pe)
	}
	wg.Wait()
	if v, _ := c.Version(0); v != rounds {
		t.Errorf("final version = %d, want %d", v, rounds)
	}
}

func TestDoubleVoteRejected(t *testing.T) {
	c, _ := New(2, nil)
	if err := c.Register(0, -1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.RequestReinit(0, 0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := c.RequestReinit(0, 0); err == nil {
		t.Error("double vote accepted")
	}
	// Complete the round so the goroutine exits.
	if _, err := c.RequestReinit(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestVoteValidation(t *testing.T) {
	c, _ := New(2, nil)
	c.Register(0, -1)
	if _, err := c.RequestReinit(99, 0); err == nil {
		t.Error("unknown array accepted")
	}
	if _, err := c.RequestReinit(0, 5); err == nil {
		t.Error("out-of-range PE accepted")
	}
}

func TestProtocolMessageAccounting(t *testing.T) {
	const npe = 4
	net, err := network.New(npe, network.Bus{N: npe}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(npe, net)
	c.Register(1, -1) // host = PE 1
	var wg sync.WaitGroup
	for pe := 0; pe < npe; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			if _, err := c.RequestReinit(1, pe); err != nil {
				t.Error(err)
			}
		}(pe)
	}
	wg.Wait()
	// NPE requests + NPE-1 grants, minus the host's self-request which
	// is local.
	if got := c.MessagesSent(); got != int64(npe+npe-1) {
		t.Errorf("MessagesSent = %d, want %d", got, npe+npe-1)
	}
	if reqs := net.CountByType(network.ReinitRequest); reqs != npe-1 {
		t.Errorf("wire requests = %d, want %d (host's own is local)", reqs, npe-1)
	}
	if grants := net.CountByType(network.ReinitGrant); grants != npe-1 {
		t.Errorf("wire grants = %d, want %d", grants, npe-1)
	}
}

func TestManyArraysIndependentRounds(t *testing.T) {
	// Re-initialization rounds of different arrays must not interfere.
	const npe = 4
	c, _ := New(npe, nil)
	for a := 0; a < 6; a++ {
		if err := c.Register(a, -1); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for pe := 0; pe < npe; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			// All PEs visit the arrays in the same program order — the
			// barriers are full-machine, so differing orders would be a
			// program deadlock, exactly as with any barrier protocol.
			for a := 0; a < 6; a++ {
				if _, err := c.RequestReinit(a, pe); err != nil {
					t.Error(err)
					return
				}
			}
		}(pe)
	}
	wg.Wait()
	for a := 0; a < 6; a++ {
		if v, _ := c.Version(a); v != 1 {
			t.Errorf("array %d version = %d", a, v)
		}
	}
}
