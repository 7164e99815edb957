// Package machine executes Livermore kernels on a simulated
// loosely-coupled MIMD machine, making the paper's claims operational:
// one goroutine per PE runs the replicated loop body with
// owner-computes screening (§2), local memory is single-assignment
// tagged storage (§3), and every remote read is a real request/reply
// message exchange that fetches and caches a page snapshot (§4).
//
// No kernel contains any explicit synchronization; ordering emerges
// entirely from the write-once/read-many memory protocol, and — the
// point of single assignment — the computed values are deterministic
// regardless of PE interleaving.
package machine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/samem"
	"repro/internal/stats"
)

// Config selects the machine.
type Config struct {
	NPE        int
	PageSize   int
	CacheElems int            // per-PE cache capacity in elements; 0 disables caching
	Policy     cache.Policy   // page replacement policy
	Layout     partition.Kind // partitioning scheme
	LayoutRun  int            // block-cyclic run length
	Topology   Topo           // interconnect for hop accounting
	InboxDepth int            // per-PE inbox buffering (default 64)
	// Chaos injects scheduler yields at memory-access points to
	// diversify PE interleavings. Single assignment guarantees the
	// computed values are identical under any schedule; Chaos exists so
	// tests can hammer that claim.
	Chaos bool
	// DeadlockTimeout bounds how long the machine may make no progress
	// (no writes, no messages) while compute goroutines are still
	// running. A kernel that reads a cell no one ever writes blocks its
	// reader on a deferred read forever — on real hardware a hang, here
	// an error after two quiet intervals. Zero derives the default from
	// the machine and problem size (DefaultDeadline); negative disables
	// the watchdog.
	DeadlockTimeout time.Duration
	// Faults, when non-nil, runs the machine over a lossy interconnect:
	// page traffic is dropped, duplicated, delayed and stalled under
	// the seeded deterministic fault model (network.FaultConfig), and
	// the self-healing page protocol (sequence numbers, retry with
	// capped exponential backoff, duplicate suppression) keeps the
	// computed values bit-identical to a fault-free run — the paper's
	// §4 idempotence argument made executable. See docs/FAULTS.md.
	Faults *network.FaultConfig
	// Retry tunes the self-healing page protocol. The zero value keeps
	// the protocol off on a perfect interconnect and enables it with
	// defaults whenever Faults is set; setting MaxAttempts explicitly
	// enables it regardless.
	Retry RetryPolicy
	// Metrics, when non-nil, receives the machine's internal
	// observability signals (inbox depths, deferred-read queue lengths,
	// page-fetch latencies, watchdog stalls and aborts — see the
	// Metric* names). When nil, the process-wide obs.Default() is
	// consulted. Instrumentation observes; it never changes the
	// computed values, which single assignment pins regardless.
	Metrics *obs.Registry
}

// RetryPolicy tunes the self-healing page protocol: how long a
// requester waits for a page reply before retransmitting, how the wait
// grows, and when it gives up and diagnoses a dead link. Retransmission
// is safe because every page-protocol message is idempotent under
// single assignment: a re-request is answered with a fresh snapshot,
// and a duplicate reply only ever adds defined cells.
type RetryPolicy struct {
	// MaxAttempts is the total number of request transmissions per
	// fetch (first send plus retries) before the fetch is diagnosed as
	// a dead link and the machine aborts. 0 selects the default (20).
	MaxAttempts int
	// BaseTimeout is the reply wait before the first retransmission;
	// each retry doubles it. 0 selects the default (2ms).
	BaseTimeout time.Duration
	// MaxTimeout caps the exponential backoff. 0 selects the default
	// (100ms).
	MaxTimeout time.Duration
}

// retrySettings is a resolved, validated RetryPolicy.
type retrySettings struct {
	enabled     bool
	maxAttempts int
	base        time.Duration
	cap         time.Duration
}

func (c Config) retrySettings() retrySettings {
	s := retrySettings{
		enabled:     c.Faults != nil || c.Retry.MaxAttempts > 0,
		maxAttempts: c.Retry.MaxAttempts,
		base:        c.Retry.BaseTimeout,
		cap:         c.Retry.MaxTimeout,
	}
	if s.maxAttempts <= 0 {
		s.maxAttempts = 20
	}
	if s.base <= 0 {
		s.base = 2 * time.Millisecond
	}
	if s.cap < s.base {
		s.cap = 100 * time.Millisecond
		if s.cap < s.base {
			s.cap = s.base
		}
	}
	return s
}

// DefaultDeadline derives the watchdog's quiet-interval default from
// the machine and problem size: one microsecond per (PE × loop
// iteration) of legitimate work a quiet interval may contain, floored
// at 5s (small problems keep the historical default) and capped at 60s
// (a genuine hang still diagnoses within two intervals).
func DefaultDeadline(npe, n int) time.Duration {
	d := time.Duration(npe) * time.Duration(n) * time.Microsecond
	if d < 5*time.Second {
		return 5 * time.Second
	}
	if d > 60*time.Second {
		return 60 * time.Second
	}
	return d
}

// Observability signal names recorded by an instrumented machine.
const (
	// MetricRuns counts machine executions.
	MetricRuns = "machine.runs"
	// MetricFetchLatency is a histogram of remote page-fetch latencies
	// measured in progress steps (writes + page replies elsewhere in
	// the machine between the request and its reply) — a logical clock
	// that is meaningful across host speeds.
	MetricFetchLatency = "machine.page_fetch_latency_steps"
	// MetricDeferredLen is a histogram of the deferred-read queue
	// length sampled each time a remote read is deferred (§3/§4:
	// requests for still-undefined cells queue until the producer
	// writes). Deep buckets mean readers are racing far ahead of
	// producers.
	MetricDeferredLen = "machine.deferred_queue_len"
	// MetricWatchdogStalls counts quiet watchdog intervals (no write or
	// reply progress); two consecutive stalls abort the run.
	MetricWatchdogStalls = "machine.watchdog_stalls"
	// MetricAborts counts aborted machine runs.
	MetricAborts = "machine.aborts"
	// MetricFetchRetries counts page-request retransmissions after a
	// reply timeout (self-healing protocol; see docs/FAULTS.md).
	MetricFetchRetries = "machine.fetch_retries"
	// MetricDupReplies counts duplicate or stale page replies
	// suppressed at requesters (their snapshots merge monotonically
	// into the cache before being discarded).
	MetricDupReplies = "machine.dup_replies_suppressed"
	// MetricDupRequests counts duplicate page requests suppressed at
	// owners while the original request's deferred reply is pending.
	MetricDupRequests = "machine.dup_requests_suppressed"
	// MetricRedundantDiscards counts redundant replies discarded at a
	// full requester channel (covered by retransmission).
	MetricRedundantDiscards = "machine.redundant_replies_discarded"
)

// machineMetrics holds resolved instrument handles; every field is nil
// (a no-op) when the machine runs uninstrumented, so hot paths pay only
// nil checks.
type machineMetrics struct {
	fetchLatency      *obs.Histogram
	deferredLen       *obs.Histogram
	watchdogStalls    *obs.Counter
	aborts            *obs.Counter
	retries           *obs.Counter
	dupReplies        *obs.Counter
	dupRequests       *obs.Counter
	redundantDiscards *obs.Counter
}

func newMachineMetrics(r *obs.Registry) machineMetrics {
	return machineMetrics{
		fetchLatency:      r.Histogram(MetricFetchLatency, obs.StepBuckets),
		deferredLen:       r.Histogram(MetricDeferredLen, obs.DepthBuckets),
		watchdogStalls:    r.Counter(MetricWatchdogStalls),
		aborts:            r.Counter(MetricAborts),
		retries:           r.Counter(MetricFetchRetries),
		dupReplies:        r.Counter(MetricDupReplies),
		dupRequests:       r.Counter(MetricDupRequests),
		redundantDiscards: r.Counter(MetricRedundantDiscards),
	}
}

// Topo selects the interconnect topology.
type Topo int

// Interconnect topologies.
const (
	TopoBus Topo = iota
	TopoRing
	TopoMesh
	TopoHypercube
)

// DefaultConfig mirrors the paper's baseline machine.
func DefaultConfig(npe, pageSize int) Config {
	return Config{NPE: npe, PageSize: pageSize, CacheElems: 256, Policy: cache.LRU, Layout: partition.KindModulo}
}

func (c Config) topology() (network.Topology, error) {
	switch c.Topology {
	case TopoBus:
		return network.Bus{N: c.NPE}, nil
	case TopoRing:
		return network.Ring{N: c.NPE}, nil
	case TopoMesh:
		return network.NewMesh2D(c.NPE), nil
	case TopoHypercube:
		return network.NewHypercube(c.NPE)
	default:
		return nil, fmt.Errorf("machine: unknown topology %d", int(c.Topology))
	}
}

// Result reports one concurrent execution.
type Result struct {
	Kernel string
	N      int
	Config Config

	PerPE  stats.PerPE
	Totals stats.Counters
	Cache  []cache.Stats

	Net          network.Counters // network-wide traffic
	PageRequests int64
	PageReplies  int64
	ReduceMsgs   int64

	// Self-healing protocol counters; nonzero only when the retry
	// protocol ran (Faults set or Retry.MaxAttempts > 0).
	Retries     int64 // page-request retransmissions after reply timeouts
	DupReplies  int64 // duplicate/stale replies suppressed at requesters
	DupRequests int64 // duplicate requests suppressed at owners
	// Faults accounts the injected faults of the run (all-zero on a
	// perfect interconnect). Injected traffic is kept out of Net and
	// the per-type counts so paper figures stay comparable.
	Faults network.FaultStats

	Checksums []loops.ArraySum
	// Values and DefinedOf hold the final dense contents of each output
	// array, read back from the distributed pages, for exact comparison
	// against the sequential reference.
	Values    map[string][]float64
	DefinedOf map[string][]bool
}

// abortError unwinds a PE's compute goroutine when the machine aborts.
type abortError struct{ cause string }

func (e abortError) Error() string { return "machine: aborted: " + e.cause }

// arrayState is the machine-wide descriptor of one array: geometry,
// layout, and the distributed pages (page p conceptually resides in the
// local memory of its owner; the access paths enforce that discipline).
type arrayState struct {
	geom   partition.Geometry
	layout partition.Layout
	pages  []*samem.Page
	host   int // host processor for reductions and re-initialization (§5)
	base   int // dense id of page 0 in the PE caches' page-id space
}

type machine struct {
	cfg    Config
	net    *network.Network
	faults *network.Faults // nil on a perfect interconnect
	retry  retrySettings
	arrays []*arrayState

	perPE   []stats.Counters
	caches  []*cache.Cache
	reduceC []chan network.Message

	// Owner-side duplicate-request suppression: per owner PE, the
	// (requester, sequence) pairs whose deferred reply is pending, so a
	// retransmitted request does not queue a second deferred wait. An
	// entry is removed when its reply fires; later duplicates then hit
	// the defined cell and are idempotently re-replied.
	pendMu  []sync.Mutex
	pending []map[pendKey]bool

	abortOnce sync.Once
	abort     chan struct{}
	errMu     sync.Mutex
	firstErr  error

	deferred  sync.WaitGroup
	deferredN atomic.Int64 // currently queued deferred reads
	progress  atomic.Int64 // writes + messages, for deadlock detection

	retries           atomic.Int64
	dupReplies        atomic.Int64
	dupRequests       atomic.Int64
	redundantDiscards atomic.Int64

	met machineMetrics
}

// pendKey identifies one outstanding fetch at its owner: the requester
// PE plus the requester-assigned fetch sequence number.
type pendKey struct {
	src int
	seq uint64
}

func (m *machine) fail(err error) {
	m.errMu.Lock()
	first := m.firstErr == nil
	if first {
		m.firstErr = err
	}
	m.errMu.Unlock()
	if first {
		m.met.aborts.Inc()
	}
	m.abortOnce.Do(func() { close(m.abort) })
}

// peEngine is PE pe's view of the machine; it implements loops.Engine.
type peEngine struct {
	m        *machine
	pe       int
	inAssign bool
	replyCh  chan network.Message
	waitCh   chan float64
	chaosRng uint64
	// nextSeq numbers this PE's page fetches; retransmissions of one
	// fetch share its sequence, so replies can be matched to fetches
	// and duplicates suppressed.
	nextSeq uint64
}

// maybeYield perturbs the schedule under Chaos: a deterministic
// per-PE pseudo-random stream decides where to hand the processor
// over, so repeated runs explore different interleavings (the stream
// interacts with the runtime's own nondeterminism).
func (e *peEngine) maybeYield() {
	if !e.m.cfg.Chaos {
		return
	}
	e.chaosRng ^= e.chaosRng << 13
	e.chaosRng ^= e.chaosRng >> 7
	e.chaosRng ^= e.chaosRng << 17
	if e.chaosRng&7 == 0 {
		runtime.Gosched()
	}
}

// BeginAssign implements owner-computes screening: the RHS is evaluated
// only when this PE owns the target element (§2/§3).
func (e *peEngine) BeginAssign(a *loops.Arr, lin int) bool {
	if e.inAssign {
		panic(abortError{cause: fmt.Sprintf("nested assignment on %s[%d]", a.Name, lin)})
	}
	st := e.m.arrays[a.ID]
	if st.layout.Owner(st.geom.PageOf(lin)) != e.pe {
		return false
	}
	e.inAssign = true
	return true
}

// FinishAssign implements loops.Engine: a local single-assignment write
// that also wakes any queued remote readers.
func (e *peEngine) FinishAssign(a *loops.Arr, lin int, v float64) {
	e.maybeYield()
	e.inAssign = false
	st := e.m.arrays[a.ID]
	page := st.geom.PageOf(lin)
	if err := st.pages[page].Write(st.geom.Offset(lin), v); err != nil {
		e.m.fail(err)
		panic(abortError{cause: err.Error()})
	}
	e.m.perPE[e.pe].Writes++
	e.m.progress.Add(1)
}

// Read implements loops.Engine: local reads come from the PE's own
// pages (blocking on undefined cells), remote reads go through the
// cache and the network.
func (e *peEngine) Read(a *loops.Arr, lin int) float64 {
	e.maybeYield()
	st := e.m.arrays[a.ID]
	page := st.geom.PageOf(lin)
	off := st.geom.Offset(lin)
	if st.layout.Owner(page) == e.pe {
		e.m.perPE[e.pe].LocalReads++
		return e.localRead(st, a, page, off)
	}
	if v, out := e.m.caches[e.pe].Lookup(st.base+page, off); out == cache.Hit {
		e.m.perPE[e.pe].CachedReads++
		return v
	}
	// Remote read (§4): request the page from its owner; the reply — a
	// snapshot taken once the requested cell is defined — is cached.
	e.m.perPE[e.pe].RemoteReads++
	owner := st.layout.Owner(page)
	var fetchStart int64
	if e.m.met.fetchLatency != nil {
		fetchStart = e.m.progress.Load()
	}
	rep := e.fetchPage(a, page, off, owner)
	if e.m.met.fetchLatency != nil {
		e.m.met.fetchLatency.Observe(e.m.progress.Load() - fetchStart)
	}
	if e.m.retry.enabled {
		// Monotone merge: a reply can never carry less than the cache
		// already holds for the requested cell, but under reordering it
		// may be older elsewhere in the page — merging only ever adds.
		e.m.caches[e.pe].Merge(st.base+page, rep.Payload, rep.Defined)
	} else {
		e.m.caches[e.pe].Insert(st.base+page, rep.Payload, rep.Defined)
	}
	return rep.Payload[off]
}

// fetchPage performs one remote page fetch. On a perfect interconnect
// it is a single request/reply exchange. With the self-healing protocol
// enabled, the fetch carries a sequence number and survives a lossy
// interconnect: reply timeouts retransmit with capped exponential
// backoff, duplicate and stale replies are absorbed (their snapshots
// merge monotonically into the cache) and suppressed, and exhausting
// the attempt budget diagnoses the dead link — naming the page, owner
// and attempt count — instead of hanging.
//
// A reply whose requested cell is still undefined is the owner's
// deferred ack (see servePage): proof the link is alive and the wait is
// a legitimate §3 deferred read, not loss. It resets the attempt budget
// — only consecutive unanswered transmissions indict the link — so a
// slow producer at the end of a long cross-PE recurrence can never be
// misdiagnosed as a partition.
func (e *peEngine) fetchPage(a *loops.Arr, page, off, owner int) network.Message {
	m := e.m
	if !m.retry.enabled {
		req := network.Message{
			Type: network.PageRequest, Src: e.pe, Dst: owner,
			Array: a.ID, Page: page, Cell: off, Reply: e.replyCh,
		}
		if err := m.net.SendAbort(req, m.abort); err != nil {
			m.fail(err)
			panic(abortError{cause: err.Error()})
		}
		select {
		case rep := <-e.replyCh:
			return rep
		case <-m.abort:
			panic(abortError{cause: "abort while awaiting page reply"})
		}
	}

	seq := e.nextSeq
	e.nextSeq++
	e.drainStale()
	req := network.Message{
		Type: network.PageRequest, Src: e.pe, Dst: owner, Seq: seq,
		Array: a.ID, Page: page, Cell: off, Reply: e.replyCh,
	}
	timeout := m.retry.base
	start := time.Now()
	for attempt := 1; ; attempt++ {
		if err := m.net.SendAbort(req, m.abort); err != nil {
			m.fail(err)
			panic(abortError{cause: err.Error()})
		}
		timer := time.NewTimer(timeout)
	recv:
		for {
			select {
			case rep := <-e.replyCh:
				if rep.Seq != seq {
					e.absorbStale(rep)
					continue recv
				}
				if rep.Defined != nil && off < len(rep.Defined) && !rep.Defined[off] {
					// Deferred ack: the owner has the request and the
					// producer has not written yet. Bank the partial
					// snapshot and forgive the attempts so far.
					e.mergeReply(rep)
					attempt = 0
					continue recv
				}
				timer.Stop()
				return rep
			case <-timer.C:
				if attempt >= m.retry.maxAttempts {
					err := fmt.Errorf(
						"machine: PE %d gives up fetching %s page %d (cell %d) from owner PE %d after %d attempts over %v: link presumed dead",
						e.pe, a.Name, page, off, owner, attempt, time.Since(start).Round(time.Millisecond))
					m.fail(err)
					panic(abortError{cause: err.Error()})
				}
				m.retries.Add(1)
				m.met.retries.Inc()
				timeout *= 2
				if timeout > m.retry.cap {
					timeout = m.retry.cap
				}
				break recv
			case <-m.abort:
				timer.Stop()
				panic(abortError{cause: "abort while awaiting page reply"})
			}
		}
	}
}

// drainStale empties the reply channel of stragglers from earlier
// fetches before a new fetch starts listening.
func (e *peEngine) drainStale() {
	for {
		select {
		case rep := <-e.replyCh:
			e.absorbStale(rep)
		default:
			return
		}
	}
}

// absorbStale suppresses a duplicate or stale page reply. Suppression
// is safe — and free — under single assignment: a snapshot's defined
// cells are final, so the stale payload merges monotonically into the
// cache (it can only add information) before the message is discarded.
func (e *peEngine) absorbStale(rep network.Message) {
	e.m.dupReplies.Add(1)
	e.m.met.dupReplies.Inc()
	e.mergeReply(rep)
}

// mergeReply folds a reply's snapshot into the cache monotonically.
func (e *peEngine) mergeReply(rep network.Message) {
	if rep.Type != network.PageReply || rep.Payload == nil {
		return
	}
	e.m.caches[e.pe].Merge(e.m.arrays[rep.Array].base+rep.Page, rep.Payload, rep.Defined)
}

func (e *peEngine) localRead(st *arrayState, a *loops.Arr, page, off int) float64 {
	p := st.pages[page]
	if v, ok := p.TryRead(off); ok {
		return v
	}
	// A local deferred read: queued until the (local) producer writes.
	// In a sequentially valid kernel this PE must itself produce the
	// cell later in its program order, so blocking here means the
	// kernel reads ahead of its own writes — abort rather than hang.
	if v, ok := p.ReadOrWait(off, e.waitCh); ok {
		return v
	}
	err := fmt.Errorf("machine: PE %d reads own undefined cell %s[%d] (read-before-write)",
		e.pe, a.Name, p.Base()+off)
	e.m.fail(err)
	panic(abortError{cause: err.Error()})
}

// Reduce implements the §9 host-processor vector-to-scalar mechanism:
// each PE folds the terms whose driver elements it owns, every PE sends
// its partial to the array's host, and the host broadcasts the result.
func (e *peEngine) Reduce(op loops.Op, driver *loops.Arr, lo, hi int, term func(i int) float64) (float64, int) {
	if e.inAssign {
		panic(abortError{cause: "reduction inside an assignment"})
	}
	st := e.m.arrays[driver.ID]
	acc, at := 0.0, -1
	first := true
	for i := lo; i < hi; i++ {
		if st.layout.Owner(st.geom.PageOf(i)) != e.pe {
			continue
		}
		v := term(i)
		idx := i
		if op == loops.OpSum {
			idx = -1
		}
		if first {
			acc, at = v, idx
			first = false
			continue
		}
		acc, at = loops.CombineReduce(op, acc, at, v, idx)
	}
	// A PE with no owned terms contributes the combine identity:
	// (0, -1). CombineReduce treats index -1 as "no value" for min/max
	// and 0 is the additive identity for sums.
	if first {
		acc, at = 0, -1
	}
	host := st.host
	if e.pe != host {
		msg := network.Message{
			Type: network.ReduceSend, Src: e.pe, Dst: host,
			Array: driver.ID, Value: acc, Cell: at,
		}
		if err := e.m.net.SendAbort(msg, e.m.abort); err != nil {
			e.m.fail(err)
			panic(abortError{cause: err.Error()})
		}
		select {
		case rep := <-e.m.reduceC[e.pe]:
			return rep.Value, rep.Cell
		case <-e.m.abort:
			panic(abortError{cause: "abort while awaiting reduction broadcast"})
		}
	}
	// Host: collect one partial per other PE, fold them in PE-rank
	// order so the floating-point result is deterministic regardless of
	// message arrival order, then broadcast.
	partialV := make([]float64, e.m.cfg.NPE)
	partialI := make([]int, e.m.cfg.NPE)
	for pe := range partialI {
		partialI[pe] = -1
	}
	partialV[host], partialI[host] = acc, at
	for received := 0; received < e.m.cfg.NPE-1; received++ {
		select {
		case msg := <-e.m.reduceC[e.pe]:
			partialV[msg.Src], partialI[msg.Src] = msg.Value, msg.Cell
		case <-e.m.abort:
			panic(abortError{cause: "abort while collecting reduction partials"})
		}
	}
	total, totalAt := 0.0, -1
	haveAny := false
	for pe := 0; pe < e.m.cfg.NPE; pe++ {
		if op != loops.OpSum && partialI[pe] == -1 {
			continue // identity partial
		}
		if !haveAny {
			total, totalAt = partialV[pe], partialI[pe]
			haveAny = true
			continue
		}
		total, totalAt = loops.CombineReduce(op, total, totalAt, partialV[pe], partialI[pe])
	}
	for pe := 0; pe < e.m.cfg.NPE; pe++ {
		if pe == host {
			continue
		}
		msg := network.Message{
			Type: network.ReduceBcast, Src: host, Dst: pe,
			Array: driver.ID, Value: total, Cell: totalAt,
		}
		if err := e.m.net.SendAbort(msg, e.m.abort); err != nil {
			e.m.fail(err)
			panic(abortError{cause: err.Error()})
		}
	}
	return total, totalAt
}

// watchdog aborts the machine if no write or reply happens for two
// consecutive intervals while compute goroutines are still running:
// the signature of a read that can never be satisfied.
func (m *machine) watchdog(interval time.Duration, done <-chan struct{}) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	last := int64(-1)
	strikes := 0
	for {
		select {
		case <-done:
			return
		case <-m.abort:
			return
		case <-ticker.C:
			cur := m.progress.Load()
			if cur == last {
				strikes++
				m.met.watchdogStalls.Inc()
				if strikes >= 2 {
					m.fail(fmt.Errorf("machine: deadlock: no progress for %v — a deferred read can never be satisfied", 2*interval))
					return
				}
			} else {
				strikes = 0
				last = cur
			}
		}
	}
}

// handler is PE pe's message server: it satisfies remote page requests
// against the PE's local pages (queueing deferred replies for undefined
// cells) and forwards reduction traffic to the compute goroutine. The
// abort signal doubles as the quiesce signal at teardown: once every
// compute goroutine has finished, any message still in an inbox is a
// redundant retransmission no one is waiting on, so handlers stop
// serving before the deferred and fault layers are drained (serving
// later would race those layers' teardown waits).
func (m *machine) handler(pe int) {
	for {
		select {
		case msg, ok := <-m.net.Inbox(pe):
			if !ok {
				return
			}
			switch msg.Type {
			case network.PageRequest:
				m.servePage(pe, msg)
			case network.ReduceSend, network.ReduceBcast:
				select {
				case m.reduceC[pe] <- msg:
				case <-m.abort:
				}
			case network.Halt:
				return
			}
		case <-m.abort:
			return
		}
	}
}

func (m *machine) servePage(pe int, req network.Message) {
	st := m.arrays[req.Array]
	p := st.pages[req.Page]
	if _, ok := p.TryRead(req.Cell); ok {
		// Serving a defined cell is idempotent: a retransmitted request
		// simply earns a fresh snapshot (§4 — re-fetching a page is
		// always safe), so duplicates need no bookkeeping here.
		m.replySnapshot(pe, req, p)
		return
	}
	if m.retry.enabled {
		// Duplicate suppression for deferred requests: while the
		// original request's deferred reply is pending, retransmissions
		// of the same fetch must not queue a second wait — but each one
		// still earns a fresh partial-snapshot ack, so the requester
		// keeps seeing a live link however long the producer takes.
		key := pendKey{src: req.Src, seq: req.Seq}
		m.pendMu[pe].Lock()
		if m.pending[pe][key] {
			m.pendMu[pe].Unlock()
			m.dupRequests.Add(1)
			m.met.dupRequests.Inc()
			m.replySnapshot(pe, req, p)
			return
		}
		m.pending[pe][key] = true
		m.pendMu[pe].Unlock()
	}
	// Deferred remote read (§3/§4): queue until the producer writes the
	// requested cell, then reply with the page as it stands.
	ch := make(chan float64, 1)
	if _, ok := p.ReadOrWait(req.Cell, ch); ok {
		m.clearPending(pe, req)
		m.replySnapshot(pe, req, p)
		return
	}
	if m.retry.enabled {
		// Deferred ack: an immediate partial snapshot tells the
		// requester its request arrived and the wait is legitimate
		// (fetchPage resets its attempt budget on seeing one), keeping
		// a slow producer distinguishable from a dead link.
		m.replySnapshot(pe, req, p)
	}
	m.deferred.Add(1)
	m.met.deferredLen.Observe(m.deferredN.Add(1))
	go func() {
		defer m.deferredN.Add(-1)
		defer m.deferred.Done()
		select {
		case <-ch:
			// Clear before replying: if the reply is lost, the next
			// retransmission must find the cell defined and re-reply
			// rather than being suppressed against a dead wait.
			m.clearPending(pe, req)
			m.replySnapshot(pe, req, p)
		case <-m.abort:
			m.clearPending(pe, req)
		}
	}()
}

// clearPending removes a deferred request from the owner's duplicate
// suppression table once its reply has fired (or the machine aborted).
func (m *machine) clearPending(pe int, req network.Message) {
	if !m.retry.enabled {
		return
	}
	key := pendKey{src: req.Src, seq: req.Seq}
	m.pendMu[pe].Lock()
	delete(m.pending[pe], key)
	m.pendMu[pe].Unlock()
}

func (m *machine) replySnapshot(pe int, req network.Message, p *samem.Page) {
	m.progress.Add(1)
	vals, defined := p.Snapshot()
	rep := network.Message{
		Type: network.PageReply, Src: pe, Dst: req.Src, Seq: req.Seq,
		Array: req.Array, Page: req.Page, Payload: vals, Defined: defined,
	}
	if err := m.net.Reply(req, rep); err != nil {
		if m.retry.enabled && errors.Is(err, network.ErrReplyFull) {
			// A redundant reply with nowhere to land: the requester
			// already accepted a copy for this fetch. Discarding it is
			// semantically a network drop, which retransmission covers.
			m.redundantDiscards.Add(1)
			m.met.redundantDiscards.Inc()
			return
		}
		m.fail(err)
	}
}

// Run executes kernel k at problem size n on the concurrent machine.
func Run(k *loops.Kernel, n int, cfg Config) (*Result, error) {
	if cfg.NPE <= 0 {
		return nil, fmt.Errorf("machine: NPE must be positive, got %d", cfg.NPE)
	}
	if cfg.PageSize <= 0 {
		return nil, fmt.Errorf("machine: page size must be positive, got %d", cfg.PageSize)
	}
	if cfg.InboxDepth <= 0 {
		cfg.InboxDepth = 64
	}
	n = k.ClampN(n)
	topo, err := cfg.topology()
	if err != nil {
		return nil, err
	}
	net, err := network.New(cfg.NPE, topo, cfg.InboxDepth)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	net.Instrument(reg)
	reg.Counter(MetricRuns).Inc()
	m := &machine{cfg: cfg, net: net, retry: cfg.retrySettings(), abort: make(chan struct{}), met: newMachineMetrics(reg)}
	if cfg.Faults != nil {
		faults, err := network.NewFaults(*cfg.Faults, cfg.NPE)
		if err != nil {
			return nil, err
		}
		faults.Instrument(reg)
		if err := net.InjectFaults(faults); err != nil {
			return nil, err
		}
		m.faults = faults
	}
	if m.retry.enabled {
		m.pendMu = make([]sync.Mutex, cfg.NPE)
		m.pending = make([]map[pendKey]bool, cfg.NPE)
		for pe := range m.pending {
			m.pending[pe] = make(map[pendKey]bool)
		}
	}

	specs := k.Arrays(n)
	// Build one context per PE over shared array state.
	protoCtx, err := loops.Bind(&peEngine{m: m}, specs) // for geometry only
	if err != nil {
		return nil, fmt.Errorf("machine: %s: %w", k.Key, err)
	}
	pages := 0 // the PE caches' page-id space, every array's pages in turn
	for i, a := range protoCtx.Arrays() {
		g, err := partition.NewGeometry(a.Len(), cfg.PageSize)
		if err != nil {
			return nil, err
		}
		l, err := partition.Make(cfg.Layout, cfg.NPE, g.Pages(), cfg.LayoutRun)
		if err != nil {
			return nil, err
		}
		st := &arrayState{geom: g, layout: l, host: i % cfg.NPE, base: pages}
		pages += g.Pages()
		for p := 0; p < g.Pages(); p++ {
			lo, hi := g.PageBounds(p)
			st.pages = append(st.pages, samem.NewPage(a.Name, lo, hi-lo))
		}
		// Initialization data is loaded before execution (§3).
		if init := specs[i].Init; init != nil {
			for j := 0; j < a.Len(); j++ {
				if v, ok := init(j); ok {
					pg := g.PageOf(j)
					if err := st.pages[pg].Fill(g.Offset(j), v); err != nil {
						return nil, fmt.Errorf("machine: %s: %w", k.Key, err)
					}
				}
			}
		}
		m.arrays = append(m.arrays, st)
	}

	m.perPE = make([]stats.Counters, cfg.NPE)
	m.reduceC = make([]chan network.Message, cfg.NPE)
	for pe := 0; pe < cfg.NPE; pe++ {
		c, err := cache.New(cfg.CacheElems, cfg.PageSize, cfg.Policy, pages)
		if err != nil {
			return nil, err
		}
		m.caches = append(m.caches, c)
		m.reduceC[pe] = make(chan network.Message, cfg.NPE+1)
	}

	var handlers sync.WaitGroup
	for pe := 0; pe < cfg.NPE; pe++ {
		handlers.Add(1)
		go func(pe int) {
			defer handlers.Done()
			m.handler(pe)
		}(pe)
	}

	var compute sync.WaitGroup
	for pe := 0; pe < cfg.NPE; pe++ {
		compute.Add(1)
		go func(pe int) {
			defer compute.Done()
			defer func() {
				if r := recover(); r != nil {
					if ae, ok := r.(abortError); ok {
						m.fail(ae)
						return
					}
					m.fail(fmt.Errorf("machine: PE %d panic: %v", pe, r))
				}
			}()
			// With retransmission on, one fetch can legitimately earn up
			// to two replies per attempt (a duplicate plus the real
			// copy); size the reply buffer so no redundant reply ever
			// needs discarding in the common case.
			replyDepth := 1
			if m.retry.enabled {
				replyDepth = 2*m.retry.maxAttempts + 4
			}
			eng := &peEngine{
				m: m, pe: pe,
				replyCh:  make(chan network.Message, replyDepth),
				waitCh:   make(chan float64, 1),
				chaosRng: 0x9e3779b97f4a7c15 ^ uint64(pe+1),
			}
			ctx, err := loops.Bind(eng, specs)
			if err != nil {
				m.fail(err)
				return
			}
			k.Run(ctx, n)
		}(pe)
	}
	watchdogDone := make(chan struct{})
	if cfg.DeadlockTimeout >= 0 {
		interval := cfg.DeadlockTimeout
		if interval == 0 {
			interval = DefaultDeadline(cfg.NPE, n)
		}
		go m.watchdog(interval, watchdogDone)
	}
	compute.Wait()
	close(watchdogDone)
	// Teardown order matters: with every compute goroutine done, every
	// fetch has been answered, so handlers are only serving redundant
	// retransmissions — quiesce them first (the abort signal releases
	// them), or a late-served request would register new deferred waits
	// and fault-layer deliveries behind the Waits below.
	m.abortOnce.Do(func() { close(m.abort) })
	handlers.Wait()
	m.deferred.Wait()
	// Drain the fault layer's delayed deliveries before the inboxes
	// close: a late copy either lands in a buffered inbox or is counted
	// as dropped, never sent on a closed channel.
	m.faults.Close()
	m.net.CloseInboxes()

	if m.firstErr != nil {
		return nil, fmt.Errorf("machine: %s: %w", k.Key, m.firstErr)
	}

	res := &Result{
		Kernel: k.Key, N: n, Config: cfg,
		PerPE:        m.perPE,
		Net:          net.Totals(),
		PageRequests: net.CountByType(network.PageRequest),
		PageReplies:  net.CountByType(network.PageReply),
		ReduceMsgs:   net.CountByType(network.ReduceSend) + net.CountByType(network.ReduceBcast),
		Retries:      m.retries.Load(),
		DupReplies:   m.dupReplies.Load(),
		DupRequests:  m.dupRequests.Load(),
		Faults:       m.faults.Stats(),
	}
	res.Totals = stats.PerPE(m.perPE).Totals()
	for pe := 0; pe < cfg.NPE; pe++ {
		res.Cache = append(res.Cache, m.caches[pe].Stats())
	}
	res.Values = make(map[string][]float64)
	res.DefinedOf = make(map[string][]bool)
	for _, name := range k.Outputs {
		a := protoCtx.A(name)
		st := m.arrays[a.ID]
		cs := loops.ArraySum{Name: name, Elems: a.Len()}
		dense := make([]float64, a.Len())
		denseDef := make([]bool, a.Len())
		for p, pg := range st.pages {
			vals, defined := pg.Snapshot()
			lo, _ := st.geom.PageBounds(p)
			for off, d := range defined {
				if d {
					cs.Sum += vals[off]
					cs.Defined++
					dense[lo+off] = vals[off]
					denseDef[lo+off] = true
				}
			}
		}
		res.Checksums = append(res.Checksums, cs)
		res.Values[name] = dense
		res.DefinedOf[name] = denseDef
	}
	return res, nil
}
