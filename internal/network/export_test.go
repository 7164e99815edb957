package network

// Send counts and delivers msg to its destination inbox: SendAbort
// with no abort, so a full inbox blocks.
func (nw *Network) Send(msg Message) error { return nw.SendAbort(msg, nil) }

// PECounters returns the traffic originated/terminated at PE pe.
func (nw *Network) PECounters(pe int) Counters {
	return Counters{
		Sent:     nw.sent[pe].Load(),
		Received: nw.recv[pe].Load(),
		Bytes:    nw.bytes[pe].Load(),
		Hops:     nw.hops[pe].Load(),
	}
}
