package network

import (
	"testing"
	"testing/quick"
	"time"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, Bus{}, 1); err == nil {
		t.Error("zero PEs accepted")
	}
	nw, err := New(4, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nw.n != 4 {
		t.Errorf("NPE = %d", nw.n)
	}
	if nw.topo.Name() != "bus" {
		t.Errorf("default topology = %q", nw.topo.Name())
	}
}

func TestSendDelivery(t *testing.T) {
	nw, _ := New(2, Bus{N: 2}, 4)
	msg := Message{Type: PageRequest, Src: 0, Dst: 1, Array: 3, Page: 7, Cell: 2}
	if err := nw.Send(msg); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-nw.Inbox(1):
		if got.Array != 3 || got.Page != 7 || got.Cell != 2 {
			t.Errorf("delivered %+v", got)
		}
	case <-time.After(time.Second):
		t.Fatal("message never delivered")
	}
}

func TestSendValidation(t *testing.T) {
	nw, _ := New(2, Bus{N: 2}, 1)
	if err := nw.Send(Message{Src: 0, Dst: 5}); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if err := nw.Send(Message{Src: -1, Dst: 0}); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestReplyPath(t *testing.T) {
	nw, _ := New(2, Bus{N: 2}, 1)
	req := Message{Type: PageRequest, Src: 0, Dst: 1, Reply: make(chan Message, 1)}
	if err := nw.Send(req); err != nil {
		t.Fatal(err)
	}
	got := <-nw.Inbox(1)
	rep := Message{Type: PageReply, Src: 1, Dst: 0, Payload: []float64{1, 2}}
	if err := nw.Reply(got, rep); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-req.Reply:
		if r.Type != PageReply || len(r.Payload) != 2 {
			t.Errorf("reply = %+v", r)
		}
	case <-time.After(time.Second):
		t.Fatal("reply never arrived")
	}
}

func TestReplyValidation(t *testing.T) {
	nw, _ := New(2, Bus{N: 2}, 1)
	if err := nw.Reply(Message{Src: 0}, Message{Src: 1, Dst: 0}); err == nil {
		t.Error("reply to request without channel accepted")
	}
	req := Message{Src: 0, Dst: 1, Reply: make(chan Message, 1)}
	if err := nw.Reply(req, Message{Src: 1, Dst: 1}); err == nil {
		t.Error("reply to wrong destination accepted")
	}
}

func TestCounters(t *testing.T) {
	nw, _ := New(3, Ring{N: 3}, 8)
	for i := 0; i < 5; i++ {
		if err := nw.Send(Message{Type: PageRequest, Src: 0, Dst: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Send(Message{Type: PageReply, Src: 1, Dst: 0, Payload: make([]float64, 4)}); err != nil {
		t.Fatal(err)
	}
	c0 := nw.PECounters(0)
	if c0.Sent != 5 || c0.Received != 1 {
		t.Errorf("PE0 counters = %+v", c0)
	}
	c1 := nw.PECounters(1)
	if c1.Sent != 1 || c1.Received != 5 {
		t.Errorf("PE1 counters = %+v", c1)
	}
	tot := nw.Totals()
	if tot.Sent != 6 || tot.Received != 6 {
		t.Errorf("totals = %+v", tot)
	}
	if nw.CountByType(PageRequest) != 5 || nw.CountByType(PageReply) != 1 {
		t.Error("per-type counts wrong")
	}
	if nw.CountByType(MsgType(-1)) != 0 || nw.CountByType(MsgType(99)) != 0 {
		t.Error("out-of-range type should count 0")
	}
}

func TestMessageSize(t *testing.T) {
	m := Message{Payload: make([]float64, 4), Defined: make([]bool, 4)}
	if m.Size() != 32+32+4 {
		t.Errorf("Size = %d", m.Size())
	}
	empty := Message{}
	if empty.Size() != 32 {
		t.Errorf("empty Size = %d", empty.Size())
	}
}

func TestMsgTypeString(t *testing.T) {
	names := map[MsgType]string{
		PageRequest: "page-request", PageReply: "page-reply",
		ReinitRequest: "reinit-request", ReinitGrant: "reinit-grant",
		ReduceSend: "reduce-send", ReduceBcast: "reduce-bcast", Halt: "halt",
	}
	for typ, want := range names {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(typ), typ.String(), want)
		}
	}
	if MsgType(42).String() == "" {
		t.Error("unknown type has empty name")
	}
}

func TestBusTopology(t *testing.T) {
	b := Bus{N: 8}
	if b.Hops(3, 3) != 0 || b.Hops(0, 7) != 1 {
		t.Error("bus hops wrong")
	}
	if len(b.Route(2, 5)) != 1 || b.Route(2, 2) != nil {
		t.Error("bus route wrong")
	}
	if b.Links() != 1 {
		t.Error("bus links wrong")
	}
}

func TestRingTopology(t *testing.T) {
	r := Ring{N: 8}
	cases := []struct{ s, d, hops int }{
		{0, 0, 0}, {0, 1, 1}, {0, 4, 4}, {0, 7, 1}, {1, 6, 3}, {7, 0, 1},
	}
	for _, c := range cases {
		if got := r.Hops(c.s, c.d); got != c.hops {
			t.Errorf("ring hops(%d,%d) = %d, want %d", c.s, c.d, got, c.hops)
		}
		if got := len(r.Route(c.s, c.d)); got != c.hops {
			t.Errorf("ring route(%d,%d) length = %d, want %d", c.s, c.d, got, c.hops)
		}
	}
	if r.Links() != 16 {
		t.Errorf("ring links = %d", r.Links())
	}
}

func TestMesh2D(t *testing.T) {
	m := NewMesh2D(16)
	if m.Cols != 4 || m.Rows != 4 {
		t.Fatalf("mesh for 16 PEs = %dx%d", m.Cols, m.Rows)
	}
	// PE 0 = (0,0); PE 15 = (3,3): Manhattan distance 6.
	if m.Hops(0, 15) != 6 {
		t.Errorf("mesh hops(0,15) = %d", m.Hops(0, 15))
	}
	if m.Hops(5, 5) != 0 {
		t.Error("self hops nonzero")
	}
	route := m.Route(0, 15)
	if len(route) != 6 {
		t.Errorf("route length = %d", len(route))
	}
	// Route continuity: each link starts where the previous ended.
	at := 0
	for _, l := range route {
		if l[0] != at {
			t.Fatalf("discontinuous route: %v", route)
		}
		at = l[1]
	}
	if at != 15 {
		t.Errorf("route ends at %d", at)
	}
	if m.Links() != 2*((3*4)+(4*3)) {
		t.Errorf("mesh links = %d", m.Links())
	}
	small := NewMesh2D(0)
	if small.Cols != 1 || small.Rows != 1 {
		t.Error("degenerate mesh wrong")
	}
}

func TestMeshNonSquare(t *testing.T) {
	m := NewMesh2D(6) // 3 cols x 2 rows
	if m.Cols*m.Rows < 6 {
		t.Fatalf("mesh too small: %dx%d", m.Cols, m.Rows)
	}
	for s := 0; s < 6; s++ {
		for d := 0; d < 6; d++ {
			if len(m.Route(s, d)) != m.Hops(s, d) {
				t.Errorf("route/hops mismatch for %d->%d", s, d)
			}
		}
	}
}

func TestHypercube(t *testing.T) {
	if _, err := NewHypercube(6); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := NewHypercube(0); err == nil {
		t.Error("zero accepted")
	}
	h, err := NewHypercube(8)
	if err != nil {
		t.Fatal(err)
	}
	if h.Hops(0, 7) != 3 || h.Hops(5, 5) != 0 || h.Hops(1, 2) != 2 {
		t.Error("hypercube hops wrong")
	}
	route := h.Route(0, 7)
	if len(route) != 3 {
		t.Errorf("route length = %d", len(route))
	}
	at := 0
	for _, l := range route {
		if l[0] != at {
			t.Fatalf("discontinuous route: %v", route)
		}
		at = l[1]
	}
	if at != 7 {
		t.Errorf("route ends at %d", at)
	}
	if h.Links() != 8*3 {
		t.Errorf("links = %d", h.Links())
	}
}

func TestEstimateContentionBusWorstCase(t *testing.T) {
	// All-to-one traffic on a bus: the single link carries everything.
	traffic := [][]int64{
		{0, 0, 0, 0},
		{10, 0, 0, 0},
		{10, 0, 0, 0},
		{10, 0, 0, 0},
	}
	rep := EstimateContention(Bus{N: 4}, traffic, 0.001)
	if rep.TotalMsgs != 30 || rep.MaxLinkLoad != 30 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Utilization <= 0 || rep.Utilization >= 1 {
		t.Errorf("utilization = %v", rep.Utilization)
	}
	if rep.QueueDelay < 1 {
		t.Errorf("queue delay = %v", rep.QueueDelay)
	}
}

func TestEstimateContentionMeshSpreadsLoad(t *testing.T) {
	traffic := make([][]int64, 16)
	for s := range traffic {
		traffic[s] = make([]int64, 16)
		for d := range traffic[s] {
			if s != d {
				traffic[s][d] = 1
			}
		}
	}
	bus := EstimateContention(Bus{N: 16}, traffic, 1e-6)
	mesh := EstimateContention(NewMesh2D(16), traffic, 1e-6)
	if mesh.MaxLinkLoad >= bus.MaxLinkLoad {
		t.Errorf("mesh hottest link %d not cooler than bus %d", mesh.MaxLinkLoad, bus.MaxLinkLoad)
	}
}

func TestEstimateContentionSaturation(t *testing.T) {
	traffic := [][]int64{{0, 1000}, {0, 0}}
	rep := EstimateContention(Bus{N: 2}, traffic, 1.0) // service time >> capacity
	if rep.Utilization >= 1 {
		t.Errorf("utilization must stay below 1, got %v", rep.Utilization)
	}
}

func TestPropertyHopsSymmetricAndRouteLengthMatches(t *testing.T) {
	h, _ := NewHypercube(16)
	topos := []Topology{Bus{N: 16}, Ring{N: 16}, NewMesh2D(16), h}
	f := func(sRaw, dRaw uint8) bool {
		s, d := int(sRaw%16), int(dRaw%16)
		for _, topo := range topos {
			if topo.Hops(s, d) != topo.Hops(d, s) {
				return false
			}
			if topo.Name() == "bus" {
				continue // bus routes are a shared-medium abstraction
			}
			if len(topo.Route(s, d)) != topo.Hops(s, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyTriangleInequality(t *testing.T) {
	h, _ := NewHypercube(32)
	topos := []Topology{Ring{N: 32}, NewMesh2D(32), h}
	f := func(aRaw, bRaw, cRaw uint8) bool {
		a, b, c := int(aRaw%32), int(bRaw%32), int(cRaw%32)
		for _, topo := range topos {
			if topo.Hops(a, c) > topo.Hops(a, b)+topo.Hops(b, c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
