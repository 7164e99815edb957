// Package hostproc implements the host-processor mechanism of Bic,
// Nagel & Roy (1989) §5: statically allocated single-assignment arrays
// cannot be rewritten, so reuse requires a controlled relaxation. Each
// array is assigned an administrative PE — its host processor — and
// re-initialization proceeds in two phases:
//
//  1. every PE that is finished with the current version of array A
//     sends a re-initialization request to A's host;
//  2. once the last PE has requested re-initialization, the host
//     broadcasts a grant, after which A's cells are undefined again and
//     a new version may be produced.
//
// The compiler spreads host duties evenly over PEs; here hosts default
// to array ID mod NPE.
//
// The package is deliberately independent of the execution engine: it
// synchronizes any set of goroutine "PEs" over a network.Network, and
// returns the version number that storage and caches key on.
//
// Host-processor exchanges ride the network's reliable control plane:
// unlike page requests/replies, re-initialization votes and grants are
// not idempotent (a duplicated vote would release an array early), so
// the fault-injection layer (docs/FAULTS.md) never drops, duplicates or
// delays them.
package hostproc

import (
	"fmt"
	"sync"

	"repro/internal/network"
)

// Coordinator manages host-processor synchronization for a set of
// arrays across NPE processing elements. It is safe for concurrent use
// by one goroutine per PE.
type Coordinator struct {
	npe int
	net *network.Network

	mu      sync.Mutex
	arrays  map[int]*arrayCtl
	msgSent int64
}

type arrayCtl struct {
	host    int
	version int
	pending map[int]bool // PEs whose request has arrived this round
	waiters []chan int   // grant channels, one per blocked PE
}

// New returns a Coordinator for npe PEs. net may be nil for engines
// that only need the synchronization semantics without traffic
// accounting.
func New(npe int, net *network.Network) (*Coordinator, error) {
	if npe <= 0 {
		return nil, fmt.Errorf("hostproc: NPE must be positive, got %d", npe)
	}
	return &Coordinator{npe: npe, net: net, arrays: make(map[int]*arrayCtl)}, nil
}

// Register declares an array and assigns its host processor. The
// compiler's even-spreading rule is host = array mod NPE; a negative
// host selects that default.
func (c *Coordinator) Register(array, host int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.arrays[array]; dup {
		return fmt.Errorf("hostproc: array %d already registered", array)
	}
	if host < 0 {
		host = array % c.npe
	}
	if host >= c.npe {
		return fmt.Errorf("hostproc: host %d out of range for %d PEs", host, c.npe)
	}
	c.arrays[array] = &arrayCtl{host: host, pending: make(map[int]bool)}
	return nil
}

// MessagesSent returns the number of protocol messages accounted so
// far (requests and grant broadcasts).
func (c *Coordinator) MessagesSent() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.msgSent
}

// RequestReinit is called by PE pe when it is finished with the current
// version of the array. It blocks until every PE has requested
// re-initialization and the host has granted it, then returns the new
// version number. "The host processor acts as a synchronization point
// for A so that no PE attempts to write to an out-of-date version."
func (c *Coordinator) RequestReinit(array, pe int) (int, error) {
	c.mu.Lock()
	ctl, ok := c.arrays[array]
	if !ok {
		c.mu.Unlock()
		return 0, fmt.Errorf("hostproc: unknown array %d", array)
	}
	if pe < 0 || pe >= c.npe {
		c.mu.Unlock()
		return 0, fmt.Errorf("hostproc: PE %d out of range", pe)
	}
	if ctl.pending[pe] {
		c.mu.Unlock()
		return 0, fmt.Errorf("hostproc: PE %d voted twice for array %d", pe, array)
	}
	ctl.pending[pe] = true
	// Model the request message to the host.
	c.accountLocked(pe, ctl.host, network.ReinitRequest, array)

	if len(ctl.pending) < c.npe {
		grant := make(chan int, 1)
		ctl.waiters = append(ctl.waiters, grant)
		c.mu.Unlock()
		return <-grant, nil
	}

	// Last voter: the host completes the round and broadcasts the
	// grant to every other PE.
	waiters := ctl.waiters
	ctl.waiters = nil
	ctl.pending = make(map[int]bool)
	ctl.version++
	version := ctl.version
	for other := 0; other < c.npe; other++ {
		if other != ctl.host {
			c.accountLocked(ctl.host, other, network.ReinitGrant, array)
		}
	}
	c.mu.Unlock()
	for _, ch := range waiters {
		ch <- version
	}
	return version, nil
}

// accountLocked records one protocol message. The caller holds c.mu.
// Protocol messages share the interconnect with page traffic; they are
// accounted but resolved directly by the Coordinator rather than
// routed through inboxes.
func (c *Coordinator) accountLocked(src, dst int, typ network.MsgType, array int) {
	c.msgSent++
	if c.net == nil || src == dst {
		return
	}
	_ = c.net.Account(network.Message{Type: typ, Src: src, Dst: dst, Array: array})
}
