// Deterministic fault injection for the interconnect.
//
// The paper's §4 claim — single assignment eliminates cache coherence —
// has a stronger corollary: because a fetched page can never be
// invalidated and a partially-filled page may simply be re-fetched,
// every page-protocol message is idempotent by construction. A lossy
// network therefore cannot corrupt a computation, only delay it. The
// Faults layer makes that claim testable: it intercepts SendAbort and Reply
// and drops, duplicates, delays or stalls page traffic under a
// deterministic PRNG keyed by (seed, src, dst, link sequence), so a
// chaos run is a pure function of the seed and the per-link traffic
// order.
//
// Only PageRequest and PageReply messages are ever faulted. Control
// traffic — reductions, re-initialization grants, halts — is carried by
// a reliable control plane (see docs/FAULTS.md and internal/hostproc):
// those exchanges are not idempotent, and real machines separate the
// data and control networks for exactly this reason.
//
// Faulted traffic is accounted separately from the paper's counters:
// an injected duplicate shows up in FaultStats.RedundantBytes, not in
// Network.Totals, so figures derived from the clean counters remain
// comparable across faulty and fault-free runs.

package network

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// FaultConfig describes the fault model of a lossy interconnect. The
// zero value injects nothing; probabilities are per delivered copy.
type FaultConfig struct {
	// Seed keys the deterministic PRNG. Two runs with the same seed,
	// topology and per-link traffic order make identical fault
	// decisions.
	Seed int64
	// Drop is the probability that a message copy is silently lost.
	Drop float64
	// Dup is the probability that one extra copy of a message is
	// injected (duplicate delivery).
	Dup float64
	// Delay is the probability that a copy's delivery is deferred by a
	// bounded pseudo-random interval, reordering it against younger
	// traffic. MaxDelay bounds the interval (default 1ms when Delay>0).
	Delay    float64
	MaxDelay time.Duration
	// Stall is the probability that the sending PE stalls briefly
	// before the message enters the network (a transient slow node).
	// MaxStall bounds the stall (default 1ms when Stall>0).
	Stall    float64
	MaxStall time.Duration
	// Partition lists directed (src, dst) PE pairs whose page traffic
	// is entirely lost — a dead link. A pair present here behaves as
	// Drop=1 regardless of the Drop field.
	Partition [][2]int
}

// Validate rejects probabilities outside [0,1] and negative durations.
func (c *FaultConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", c.Drop}, {"dup", c.Dup}, {"delay", c.Delay}, {"stall", c.Stall}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("network: fault %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	if c.MaxDelay < 0 || c.MaxStall < 0 {
		return fmt.Errorf("network: negative fault delay/stall bound")
	}
	return nil
}

// FaultStats aggregates the injected faults of one run.
type FaultStats struct {
	Dropped        int64 // message copies silently lost
	Duplicated     int64 // extra copies injected
	Delayed        int64 // copies delivered late (reordered)
	Stalls         int64 // sender stalls injected
	RedundantBytes int64 // modeled wire bytes of injected duplicates
	Discarded      int64 // redundant replies discarded at a full reply channel
}

// Observability signal names recorded by an instrumented Faults layer.
const (
	// MetricFaultsDropped counts message copies the fault layer lost.
	MetricFaultsDropped = "network.faults.dropped"
	// MetricFaultsDuplicated counts injected duplicate copies.
	MetricFaultsDuplicated = "network.faults.duplicated"
	// MetricFaultsDelayed counts copies delivered late.
	MetricFaultsDelayed = "network.faults.delayed"
	// MetricFaultsStalls counts injected sender stalls.
	MetricFaultsStalls = "network.faults.stalls"
	// MetricFaultsRedundantBytes accumulates wire bytes of duplicates.
	MetricFaultsRedundantBytes = "network.faults.redundant_bytes"
	// MetricFaultsDiscarded counts redundant replies dropped at a full
	// reply channel (safe: the requester's retry covers them).
	MetricFaultsDiscarded = "network.faults.discarded"
)

// Faults is an active fault injector bound to one Network. Create with
// NewFaults, attach with Network.InjectFaults before any traffic, and
// Close it once all senders have finished (Close drains delayed
// deliveries so inboxes can be closed safely).
type Faults struct {
	cfg FaultConfig
	n   int

	seq       []atomic.Uint64 // per directed link (src*n+dst) sequence
	partition map[[2]int]bool

	stopOnce sync.Once
	stop     chan struct{}
	inflight sync.WaitGroup

	dropped        atomic.Int64
	duplicated     atomic.Int64
	delayed        atomic.Int64
	stalls         atomic.Int64
	redundantBytes atomic.Int64
	discarded      atomic.Int64

	mDropped        *obs.Counter
	mDuplicated     *obs.Counter
	mDelayed        *obs.Counter
	mStalls         *obs.Counter
	mRedundantBytes *obs.Counter
	mDiscarded      *obs.Counter
}

// NewFaults returns a fault injector for an n-PE network.
func NewFaults(cfg FaultConfig, n int) (*Faults, error) {
	if n <= 0 {
		return nil, fmt.Errorf("network: faults need at least one PE, got %d", n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Delay > 0 && cfg.MaxDelay == 0 {
		cfg.MaxDelay = time.Millisecond
	}
	if cfg.Stall > 0 && cfg.MaxStall == 0 {
		cfg.MaxStall = time.Millisecond
	}
	f := &Faults{
		cfg:  cfg,
		n:    n,
		seq:  make([]atomic.Uint64, n*n),
		stop: make(chan struct{}),
	}
	if len(cfg.Partition) > 0 {
		f.partition = make(map[[2]int]bool, len(cfg.Partition))
		for _, pair := range cfg.Partition {
			f.partition[pair] = true
		}
	}
	return f, nil
}

// Instrument attaches observability instruments from the registry (a
// nil registry detaches them). Instrument before traffic starts.
func (f *Faults) Instrument(r *obs.Registry) {
	f.mDropped = r.Counter(MetricFaultsDropped)
	f.mDuplicated = r.Counter(MetricFaultsDuplicated)
	f.mDelayed = r.Counter(MetricFaultsDelayed)
	f.mStalls = r.Counter(MetricFaultsStalls)
	f.mRedundantBytes = r.Counter(MetricFaultsRedundantBytes)
	f.mDiscarded = r.Counter(MetricFaultsDiscarded)
}

// Stats returns the faults injected so far.
func (f *Faults) Stats() FaultStats {
	if f == nil {
		return FaultStats{}
	}
	return FaultStats{
		Dropped:        f.dropped.Load(),
		Duplicated:     f.duplicated.Load(),
		Delayed:        f.delayed.Load(),
		Stalls:         f.stalls.Load(),
		RedundantBytes: f.redundantBytes.Load(),
		Discarded:      f.discarded.Load(),
	}
}

// Close stops the injector: delayed deliveries still in flight are
// released (delivered or abandoned) and awaited. Call after all
// senders have finished and before Network.CloseInboxes.
func (f *Faults) Close() {
	if f == nil {
		return
	}
	f.stopOnce.Do(func() { close(f.stop) })
	f.inflight.Wait()
}

// InjectFaults attaches a fault injector to the network. Page traffic
// (PageRequest/PageReply) through SendAbort and Reply is then
// subject to the injector's fault model; all other message types pass
// through unfaulted. Not safe to call concurrently with traffic.
func (nw *Network) InjectFaults(f *Faults) error {
	if f != nil && f.n != nw.n {
		return fmt.Errorf("network: fault injector sized for %d PEs attached to %d-PE network", f.n, nw.n)
	}
	nw.faults = f
	return nil
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Per-decision salts so one (link, seq) draw yields independent values
// for each fault dimension.
const (
	saltDrop  = 0xD1CE
	saltDup   = 0xD0B1
	saltDelay = 0x1A7E
	saltStall = 0x57A1
	saltDur   = 0xD43A
)

// word derives the deterministic 64-bit draw for one decision of one
// message: a pure function of (seed, src, dst, link sequence, salt).
func (f *Faults) word(src, dst int, seq, salt uint64) uint64 {
	x := mix64(uint64(f.cfg.Seed) ^ uint64(src)<<32 ^ uint64(dst))
	x = mix64(x ^ seq)
	return mix64(x ^ salt)
}

// roll converts a draw into a uniform float in [0,1).
func roll(w uint64) float64 { return float64(w>>11) / (1 << 53) }

// faultable reports whether the fault model applies to this message
// type: only the idempotent page protocol is ever faulted.
func faultable(t MsgType) bool { return t == PageRequest || t == PageReply }

// verdict is the fault layer's decision for one message.
type verdict struct {
	drop   bool
	dup    bool
	delay  time.Duration // 0 = deliver immediately
	dupDel time.Duration // delay of the duplicate copy, if dup
	stall  time.Duration // sender-side stall before the send
}

// decide draws the verdict for the next message on link src->dst.
func (f *Faults) decide(src, dst int) verdict {
	seq := f.seq[src*f.n+dst].Add(1) - 1
	var v verdict
	if f.partition[[2]int{src, dst}] {
		v.drop = true
		return v
	}
	if f.cfg.Drop > 0 && roll(f.word(src, dst, seq, saltDrop)) < f.cfg.Drop {
		v.drop = true
		return v
	}
	if f.cfg.Stall > 0 && roll(f.word(src, dst, seq, saltStall)) < f.cfg.Stall {
		v.stall = boundedDur(f.word(src, dst, seq, saltStall^saltDur), f.cfg.MaxStall)
	}
	if f.cfg.Dup > 0 && roll(f.word(src, dst, seq, saltDup)) < f.cfg.Dup {
		v.dup = true
		v.dupDel = boundedDur(f.word(src, dst, seq, saltDup^saltDur), f.cfg.MaxDelay)
	}
	if f.cfg.Delay > 0 && roll(f.word(src, dst, seq, saltDelay)) < f.cfg.Delay {
		v.delay = boundedDur(f.word(src, dst, seq, saltDelay^saltDur), f.cfg.MaxDelay)
	}
	return v
}

// boundedDur maps a draw onto (0, max]; a zero bound yields zero.
func boundedDur(w uint64, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(w%uint64(max)) + 1
}

// deliverSend routes one SendAbort through the fault model. The message has
// already been accounted. abort, when non-nil, unblocks a send into a
// full inbox (the SendAbort contract).
func (f *Faults) deliverSend(nw *Network, msg Message, abort <-chan struct{}) error {
	v := f.decide(msg.Src, msg.Dst)
	f.applyStall(v)
	if v.drop {
		f.dropped.Add(1)
		f.mDropped.Inc()
		return nil
	}
	if v.dup {
		f.duplicated.Add(1)
		f.mDuplicated.Inc()
		f.redundantBytes.Add(int64(msg.Size()))
		f.mRedundantBytes.Add(int64(msg.Size()))
		f.enqueueLater(nw, msg, v.dupDel)
	}
	if v.delay > 0 {
		f.delayed.Add(1)
		f.mDelayed.Inc()
		f.enqueueLater(nw, msg, v.delay)
		return nil
	}
	return f.enqueue(nw, msg, abort)
}

// deliverReply routes one Reply through the fault model onto the
// requester's reply channel. The reply has already been accounted.
func (f *Faults) deliverReply(ch chan Message, msg Message) error {
	v := f.decide(msg.Src, msg.Dst)
	f.applyStall(v)
	if v.drop {
		f.dropped.Add(1)
		f.mDropped.Inc()
		return nil
	}
	if v.dup {
		f.duplicated.Add(1)
		f.mDuplicated.Inc()
		f.redundantBytes.Add(int64(msg.Size()))
		f.mRedundantBytes.Add(int64(msg.Size()))
		f.replyLater(ch, msg, v.dupDel)
	}
	if v.delay > 0 {
		f.delayed.Add(1)
		f.mDelayed.Inc()
		f.replyLater(ch, msg, v.delay)
		return nil
	}
	f.replyNow(ch, msg)
	return nil
}

func (f *Faults) applyStall(v verdict) {
	if v.stall > 0 {
		f.stalls.Add(1)
		f.mStalls.Inc()
		time.Sleep(v.stall)
	}
}

// enqueue delivers into the destination inbox, honoring an optional
// abort escape and the injector's stop signal.
func (f *Faults) enqueue(nw *Network, msg Message, abort <-chan struct{}) error {
	if abort == nil {
		abort = f.stop
	}
	select {
	case nw.inbox[msg.Dst] <- msg:
		nw.mInboxDepth.Observe(int64(len(nw.inbox[msg.Dst])))
		return nil
	case <-abort:
		return fmt.Errorf("network: send of %v from %d to %d aborted", msg.Type, msg.Src, msg.Dst)
	}
}

// enqueueLater delivers a copy after a bounded pause on a goroutine the
// injector tracks, so Close can drain every late delivery before the
// inboxes close. Delivery is preferred whenever the inbox has room —
// even if Close has already been signalled, since the inboxes are still
// open at that point; a copy is abandoned (counted as dropped) only
// when delivery would block during shutdown.
func (f *Faults) enqueueLater(nw *Network, msg Message, d time.Duration) {
	f.inflight.Add(1)
	go func() {
		defer f.inflight.Done()
		if !f.pause(d) {
			f.dropped.Add(1)
			f.mDropped.Inc()
			return
		}
		select {
		case nw.inbox[msg.Dst] <- msg:
			nw.mInboxDepth.Observe(int64(len(nw.inbox[msg.Dst])))
			return
		default:
		}
		select {
		case nw.inbox[msg.Dst] <- msg:
			nw.mInboxDepth.Observe(int64(len(nw.inbox[msg.Dst])))
		case <-f.stop:
			f.dropped.Add(1)
			f.mDropped.Inc()
		}
	}()
}

// replyNow performs a non-blocking reply delivery: a full reply channel
// means the requester already has what it needs (duplicates from
// retries fill the buffer), so the copy is discarded and counted — the
// semantic equivalent of a network drop, covered by the retry protocol.
func (f *Faults) replyNow(ch chan Message, msg Message) {
	select {
	case ch <- msg:
	default:
		f.discarded.Add(1)
		f.mDiscarded.Inc()
	}
}

// replyLater is replyNow after a bounded pause, tracked for Close.
func (f *Faults) replyLater(ch chan Message, msg Message, d time.Duration) {
	f.inflight.Add(1)
	go func() {
		defer f.inflight.Done()
		if !f.pause(d) {
			f.dropped.Add(1)
			f.mDropped.Inc()
			return
		}
		f.replyNow(ch, msg)
	}()
}

// pause sleeps for d unless the injector is stopping; it reports
// whether the pause completed.
func (f *Faults) pause(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-f.stop:
		return false
	}
}
