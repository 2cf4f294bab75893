package netsim

import "sync/atomic"

// Counters are monotonic totals of the network's activity, for
// experiment reporting and tooling.
type Counters struct {
	// DialsAttempted counts Dial calls, successful or not.
	DialsAttempted uint64
	// ConnsEstablished counts successful dials.
	ConnsEstablished uint64
	// MessagesDelivered counts messages that reached a receive queue.
	MessagesDelivered uint64
	// BytesDelivered totals the payload bytes of delivered messages.
	BytesDelivered uint64
	// BroadcastsSent counts SendBroadcast calls.
	BroadcastsSent uint64
	// LinkFailures counts connections severed by ErrLinkLost, each
	// once, whichever path noticed the dead link first.
	LinkFailures uint64
	// MessagesRetransmitted counts extra PHY transfer charges paid to
	// injected loss (faults.Plan) before a message got through.
	MessagesRetransmitted uint64
	// MessagesCorrupted counts messages delivered with an injected
	// payload mangle (faults.Plan).
	MessagesCorrupted uint64
}

type netCounters struct {
	dialsAttempted    atomic.Uint64
	connsEstablished  atomic.Uint64
	messagesDelivered atomic.Uint64
	bytesDelivered    atomic.Uint64
	broadcastsSent    atomic.Uint64
	linkFailures      atomic.Uint64

	messagesRetransmitted atomic.Uint64
	messagesCorrupted     atomic.Uint64
}

// deliver charges one message of size bytes as delivered. Both engines
// charge before handing the message to the receive queue, so a reader
// that has the message also sees it counted; undeliver takes the charge
// back when the hand-off is abandoned.
func (c *netCounters) deliver(size int) {
	c.messagesDelivered.Add(1)
	c.bytesDelivered.Add(uint64(size))
}

// undeliver reverses one deliver charge (the sync/atomic subtraction
// idiom: adding ^uint64(k-1) subtracts k).
func (c *netCounters) undeliver(size int) {
	c.messagesDelivered.Add(^uint64(0))
	c.bytesDelivered.Add(^uint64(size - 1))
}

func (c *netCounters) snapshot() Counters {
	return Counters{
		DialsAttempted:    c.dialsAttempted.Load(),
		ConnsEstablished:  c.connsEstablished.Load(),
		MessagesDelivered: c.messagesDelivered.Load(),
		BytesDelivered:    c.bytesDelivered.Load(),
		BroadcastsSent:    c.broadcastsSent.Load(),
		LinkFailures:      c.linkFailures.Load(),

		MessagesRetransmitted: c.messagesRetransmitted.Load(),
		MessagesCorrupted:     c.messagesCorrupted.Load(),
	}
}

// Counters returns a snapshot of the network's activity totals.
func (n *Network) Counters() Counters { return n.counters.snapshot() }
