// Package network models the interconnect of a loosely-coupled MIMD
// machine (Bic, Nagel & Roy 1989, §1 and §4): PEs have no shared memory
// and exchange data exclusively by messages. Remote reads are
// request/reply pairs — a PE asks the owner of a page for the page, and
// the owner replies with a snapshot once the requested element is
// defined.
//
// The package provides message delivery over per-PE inboxes, traffic
// accounting (messages, bytes, hops), several topologies (bus, ring, 2-D
// mesh, hypercube) with deterministic routing for hop counts, and an
// analytic link-contention estimator — the paper's §9 lists "network
// contention" as the next simulation refinement.
package network

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// MsgType enumerates protocol messages.
type MsgType int

// Protocol message types.
const (
	PageRequest   MsgType = iota // ask owner for the page holding a cell
	PageReply                    // page snapshot (possibly partial)
	ReinitRequest                // §5: PE is done with an array version
	ReinitGrant                  // §5: host broadcasts array reusable
	ReduceSend                   // §9: partial reduction result to host
	ReduceBcast                  // §9: reduced scalar broadcast
	Halt                         // engine shutdown
)

// String returns the message type name.
func (t MsgType) String() string {
	switch t {
	case PageRequest:
		return "page-request"
	case PageReply:
		return "page-reply"
	case ReinitRequest:
		return "reinit-request"
	case ReinitGrant:
		return "reinit-grant"
	case ReduceSend:
		return "reduce-send"
	case ReduceBcast:
		return "reduce-bcast"
	case Halt:
		return "halt"
	default:
		return fmt.Sprintf("MsgType(%d)", int(t))
	}
}

// Message is one interconnect packet.
type Message struct {
	Type MsgType
	Src  int
	Dst  int
	// Seq is the requester-assigned sequence number of a page fetch.
	// A retransmitted request reuses the sequence of the fetch it
	// retries, and a reply echoes the sequence of the request it
	// answers, so requesters can match replies to fetches and suppress
	// duplicates on a lossy interconnect (see internal/machine).
	Seq     uint64
	Array   int       // array identifier
	Page    int       // page number
	Cell    int       // page-relative cell of interest (requests)
	Value   float64   // scalar payload (reductions)
	Payload []float64 // page snapshot values (replies)
	Defined []bool    // snapshot defined bits; nil = fully defined
	// Reply is the requester's return channel for request/reply
	// exchanges; it must be buffered so repliers never block.
	Reply chan Message
}

// Size returns the modeled wire size of the message in bytes: a 32-byte
// header plus 8 bytes per payload element and 1 per defined bit.
func (m *Message) Size() int {
	return 32 + 8*len(m.Payload) + len(m.Defined)
}

// Counters aggregates traffic for one PE or the whole network.
type Counters struct {
	Sent     int64
	Received int64
	Bytes    int64
	Hops     int64
}

// Network connects n PEs with per-PE inboxes and traffic accounting.
// SendAbort and Reply are safe for concurrent use.
type Network struct {
	n      int
	topo   Topology
	inbox  []chan Message
	sent   []atomic.Int64
	recv   []atomic.Int64
	bytes  []atomic.Int64
	hops   []atomic.Int64
	byType [Halt + 1]atomic.Int64

	// faults, when non-nil, subjects page traffic to the configured
	// fault model (see faults.go). nil = perfect delivery.
	faults *Faults

	closeOnce sync.Once

	// Observability handles; nil (no-op) unless Instrument was called
	// with a live registry. Instrumentation observes traffic — it never
	// alters delivery, ordering or accounting.
	mInboxDepth *obs.Histogram
	mMsgBytes   *obs.Histogram
}

// Observability signal names recorded by an instrumented Network.
const (
	// MetricInboxDepth is a histogram of destination-inbox depths
	// sampled after each enqueue: sustained high buckets mean PEs are
	// producing messages faster than handlers drain them.
	MetricInboxDepth = "network.inbox_depth"
	// MetricMsgBytes is a histogram of modeled wire sizes per message.
	MetricMsgBytes = "network.msg_bytes"
)

// Instrument attaches observability instruments from the registry (a
// nil registry detaches them). Not safe to call concurrently with
// SendAbort/Reply; instrument before the machine starts.
func (nw *Network) Instrument(r *obs.Registry) {
	nw.mInboxDepth = r.Histogram(MetricInboxDepth, obs.DepthBuckets)
	nw.mMsgBytes = r.Histogram(MetricMsgBytes, obs.ByteBuckets)
}

// New creates a network of n PEs on the given topology with inboxes of
// the given buffer depth.
func New(n int, topo Topology, inboxDepth int) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("network: need at least one PE, got %d", n)
	}
	if topo == nil {
		topo = Bus{}
	}
	if inboxDepth < 1 {
		inboxDepth = 1
	}
	nw := &Network{
		n:     n,
		topo:  topo,
		inbox: make([]chan Message, n),
		sent:  make([]atomic.Int64, n),
		recv:  make([]atomic.Int64, n),
		bytes: make([]atomic.Int64, n),
		hops:  make([]atomic.Int64, n),
	}
	for i := range nw.inbox {
		nw.inbox[i] = make(chan Message, inboxDepth)
	}
	return nw, nil
}

// Inbox returns PE pe's receive channel.
func (nw *Network) Inbox(pe int) <-chan Message { return nw.inbox[pe] }

// CloseInboxes closes every inbox, releasing receivers. It must only be
// called once all senders have finished (with faults attached, after
// Faults.Close has drained delayed deliveries). Calling it more than
// once is a no-op, so layered teardown paths need not coordinate.
func (nw *Network) CloseInboxes() {
	nw.closeOnce.Do(func() {
		for _, ch := range nw.inbox {
			close(ch)
		}
	})
}

// Account records a message in the traffic counters without delivering
// it, for protocol layers that resolve exchanges out of band (e.g. the
// host-processor coordinator) but still want their traffic modeled.
func (nw *Network) Account(msg Message) error {
	if msg.Dst < 0 || msg.Dst >= nw.n || msg.Src < 0 || msg.Src >= nw.n {
		return fmt.Errorf("network: message %v from %d to %d out of range [0,%d)",
			msg.Type, msg.Src, msg.Dst, nw.n)
	}
	nw.account(&msg)
	return nil
}

// SendAbort counts and delivers msg to its destination inbox. Delivery
// blocks while the inbox is full, modeling finite buffering, unless
// abort fires (a nil abort never does): the send is then abandoned with
// an error, so an execution engine tearing down after a failure never
// blocks forever. With a fault injector attached, page traffic may be
// dropped, duplicated or delayed; the message is accounted either way
// (it was sent — delivery is the fault layer's business).
func (nw *Network) SendAbort(msg Message, abort <-chan struct{}) error {
	if msg.Dst < 0 || msg.Dst >= nw.n || msg.Src < 0 || msg.Src >= nw.n {
		return fmt.Errorf("network: message %v from %d to %d out of range [0,%d)",
			msg.Type, msg.Src, msg.Dst, nw.n)
	}
	nw.account(&msg)
	if nw.faults != nil && faultable(msg.Type) {
		return nw.faults.deliverSend(nw, msg, abort)
	}
	select {
	case nw.inbox[msg.Dst] <- msg:
		nw.mInboxDepth.Observe(int64(len(nw.inbox[msg.Dst])))
		return nil
	case <-abort:
		return fmt.Errorf("network: send of %v from %d to %d aborted", msg.Type, msg.Src, msg.Dst)
	}
}

// ErrReplyFull reports a reply that found the requester's channel full.
// On a perfect interconnect that is a protocol violation (the requester
// broke the single-outstanding-request discipline); under the retry
// protocol it merely means a redundant reply had nowhere to land, which
// the requester's retransmission covers. Either way it is a diagnosed
// error, never a panic — callers decide whether to abort or absorb it.
var ErrReplyFull = errors.New("reply channel full")

// Reply counts the message and delivers it directly on the requester's
// reply channel. The reply channel must be buffered; a full reply
// channel yields an error wrapping ErrReplyFull rather than blocking
// the replier or crashing the process.
func (nw *Network) Reply(to Message, msg Message) error {
	if to.Reply == nil {
		return fmt.Errorf("network: request %v from %d carried no reply channel", to.Type, to.Src)
	}
	if msg.Dst != to.Src {
		return fmt.Errorf("network: reply destination %d does not match requester %d", msg.Dst, to.Src)
	}
	nw.account(&msg)
	if nw.faults != nil && faultable(msg.Type) {
		return nw.faults.deliverReply(to.Reply, msg)
	}
	select {
	case to.Reply <- msg:
		return nil
	default:
		return fmt.Errorf("network: %w for %v from %d to %d", ErrReplyFull, msg.Type, msg.Src, msg.Dst)
	}
}

func (nw *Network) account(msg *Message) {
	sz := int64(msg.Size())
	nw.mMsgBytes.Observe(sz)
	h := int64(nw.topo.Hops(msg.Src, msg.Dst))
	nw.sent[msg.Src].Add(1)
	nw.recv[msg.Dst].Add(1)
	nw.bytes[msg.Src].Add(sz)
	nw.hops[msg.Src].Add(h)
	if int(msg.Type) <= int(Halt) {
		nw.byType[msg.Type].Add(1)
	}
}

// Totals returns network-wide traffic counters.
func (nw *Network) Totals() Counters {
	var c Counters
	for i := 0; i < nw.n; i++ {
		c.Sent += nw.sent[i].Load()
		c.Received += nw.recv[i].Load()
		c.Bytes += nw.bytes[i].Load()
		c.Hops += nw.hops[i].Load()
	}
	return c
}

// CountByType returns how many messages of type t were sent.
func (nw *Network) CountByType(t MsgType) int64 {
	if int(t) > int(Halt) || t < 0 {
		return 0
	}
	return nw.byType[t].Load()
}

// ContentionReport summarizes analytic link contention for a traffic
// matrix routed over a topology.
type ContentionReport struct {
	Links       int     // directed links in the topology
	TotalMsgs   int64   // messages routed
	MaxLinkLoad int64   // messages crossing the hottest link
	AvgLinkLoad float64 // mean messages per link
	// Utilization and QueueDelay model each link as an M/M/1 server with
	// the given per-message service time and a uniform message arrival
	// process spread over the run's duration.
	Utilization float64 // hottest-link utilization in [0, 1)
	QueueDelay  float64 // expected sojourn/service ratio on hottest link
}

// EstimateContention routes the traffic matrix deterministically over
// the topology, accumulates per-link loads, and applies an M/M/1
// approximation: with per-message service time s and run duration T,
// link utilization rho = load*s/T and sojourn time s/(1-rho). msgsPerUnit
// is load*s/T for the hottest link normalization; callers typically pass
// total remote reads over total accesses so that "minimal degradation"
// (the paper's abstract) is visible as utilization << 1.
func EstimateContention(topo Topology, traffic [][]int64, serviceOverDuration float64) ContentionReport {
	loads := map[[2]int]int64{}
	var total int64
	for s := range traffic {
		for d, m := range traffic[s] {
			if m == 0 || s == d {
				continue
			}
			total += m
			for _, link := range topo.Route(s, d) {
				loads[link] += m
			}
		}
	}
	rep := ContentionReport{Links: topo.Links(), TotalMsgs: total}
	var sum int64
	for _, l := range loads {
		sum += l
		if l > rep.MaxLinkLoad {
			rep.MaxLinkLoad = l
		}
	}
	if rep.Links > 0 {
		rep.AvgLinkLoad = float64(sum) / float64(rep.Links)
	}
	rho := float64(rep.MaxLinkLoad) * serviceOverDuration
	if rho >= 1 {
		rho = math.Nextafter(1, 0) // saturated
	}
	rep.Utilization = rho
	if rho < 1 {
		rep.QueueDelay = 1 / (1 - rho)
	}
	return rep
}

// Topology abstracts the physical interconnect for hop counting and
// deterministic routing.
type Topology interface {
	// Hops returns the path length between two PEs (0 when src == dst).
	Hops(src, dst int) int
	// Route returns the ordered directed links (pairs of PE ids) a
	// message traverses from src to dst.
	Route(src, dst int) [][2]int
	// Links returns the number of directed links.
	Links() int
	// Name returns a short topology name.
	Name() string
}

// Bus is a single shared medium: every distinct pair is one hop over the
// single shared link, which makes the bus the contention worst case.
type Bus struct{ N int }

// Hops implements Topology.
func (Bus) Hops(src, dst int) int {
	if src == dst {
		return 0
	}
	return 1
}

// Route implements Topology: all traffic shares one logical link.
func (Bus) Route(src, dst int) [][2]int {
	if src == dst {
		return nil
	}
	return [][2]int{{-1, -1}}
}

// Links implements Topology.
func (Bus) Links() int { return 1 }

// Name implements Topology.
func (Bus) Name() string { return "bus" }

// Ring connects PE i to (i±1) mod N; routing takes the shorter arc,
// breaking ties toward increasing PE numbers.
type Ring struct{ N int }

// Hops implements Topology.
func (r Ring) Hops(src, dst int) int {
	if r.N == 0 {
		return 0
	}
	d := absInt(src - dst)
	if r.N-d < d {
		d = r.N - d
	}
	return d
}

// Route implements Topology.
func (r Ring) Route(src, dst int) [][2]int {
	if src == dst || r.N == 0 {
		return nil
	}
	fwd := ((dst-src)%r.N + r.N) % r.N
	step := 1
	if fwd > r.N-fwd {
		step = -1
	}
	var links [][2]int
	for at := src; at != dst; {
		next := ((at+step)%r.N + r.N) % r.N
		links = append(links, [2]int{at, next})
		at = next
	}
	return links
}

// Links implements Topology.
func (r Ring) Links() int { return 2 * r.N }

// Name implements Topology.
func (Ring) Name() string { return "ring" }

// Mesh2D arranges N PEs in a near-square grid with dimension-ordered
// (X-then-Y) routing. PEs number row-major.
type Mesh2D struct {
	Cols int
	Rows int
}

// NewMesh2D returns a near-square mesh holding at least n PEs.
func NewMesh2D(n int) Mesh2D {
	if n <= 0 {
		return Mesh2D{Cols: 1, Rows: 1}
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	return Mesh2D{Cols: cols, Rows: rows}
}

func (m Mesh2D) coords(pe int) (x, y int) { return pe % m.Cols, pe / m.Cols }

// Hops implements Topology (Manhattan distance).
func (m Mesh2D) Hops(src, dst int) int {
	sx, sy := m.coords(src)
	dx, dy := m.coords(dst)
	return absInt(sx-dx) + absInt(sy-dy)
}

// Route implements Topology with X-then-Y dimension-ordered routing.
func (m Mesh2D) Route(src, dst int) [][2]int {
	if src == dst {
		return nil
	}
	var links [][2]int
	at := src
	ax, ay := m.coords(src)
	dx, dy := m.coords(dst)
	for ax != dx {
		step := 1
		if dx < ax {
			step = -1
		}
		next := at + step
		links = append(links, [2]int{at, next})
		at, ax = next, ax+step
	}
	for ay != dy {
		step := 1
		if dy < ay {
			step = -1
		}
		next := at + step*m.Cols
		links = append(links, [2]int{at, next})
		at, ay = next, ay+step
	}
	return links
}

// Links implements Topology (directed links).
func (m Mesh2D) Links() int {
	horiz := (m.Cols - 1) * m.Rows
	vert := m.Cols * (m.Rows - 1)
	return 2 * (horiz + vert)
}

// Name implements Topology.
func (m Mesh2D) Name() string { return fmt.Sprintf("mesh%dx%d", m.Cols, m.Rows) }

// Hypercube connects PEs differing in one address bit. N must be a power
// of two; routing corrects address bits from least significant up
// (e-cube routing).
type Hypercube struct{ N int }

// NewHypercube returns a hypercube of n PEs; n must be a power of two.
func NewHypercube(n int) (Hypercube, error) {
	if n <= 0 || n&(n-1) != 0 {
		return Hypercube{}, fmt.Errorf("network: hypercube size %d is not a power of two", n)
	}
	return Hypercube{N: n}, nil
}

// Hops implements Topology (Hamming distance).
func (Hypercube) Hops(src, dst int) int { return bits.OnesCount(uint(src ^ dst)) }

// Route implements Topology (e-cube routing).
func (h Hypercube) Route(src, dst int) [][2]int {
	if src == dst {
		return nil
	}
	var links [][2]int
	at := src
	diff := src ^ dst
	for bit := 0; diff != 0; bit++ {
		mask := 1 << bit
		if diff&mask != 0 {
			next := at ^ mask
			links = append(links, [2]int{at, next})
			at = next
			diff &^= mask
		}
	}
	return links
}

// Links implements Topology.
func (h Hypercube) Links() int {
	if h.N == 0 {
		return 0
	}
	return h.N * bits.TrailingZeros(uint(h.N))
}

// Name implements Topology.
func (Hypercube) Name() string { return "hypercube" }

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
