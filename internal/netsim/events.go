package netsim

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/radio"
)

// This file is the event-native transport API: non-blocking
// counterparts of Dial/Accept/Send/Recv/Close for callers that ARE
// events on the network's des.Scheduler, so a workload driver can be a
// self-rescheduling event cascade instead of a goroutine. Everything
// here schedules through Ctx.At — child keys derived from the calling
// event — so a pure event-driver workload replays byte-for-byte
// (trace-hash invariant across shard and worker counts), which the
// blocking API cannot promise because its Scheduler.At draws depend on
// live-goroutine interleaving. Counter parity with the blocking API is
// exact: the same dialsAttempted/connsEstablished/messagesDelivered/
// bytesDelivered accounting on the same code paths, which is what lets
// the goroutine-driver harness stay the differential oracle.
//
// Contract: an event caller must never block, so admission that would
// park a goroutine instead fails fast (ErrSendTimeout) and waiting is
// expressed as a parked callback (RecvEvent arms a waiter the delivery
// event invokes). One RecvEvent may be outstanding per conn end.

// recvFn is a RecvEvent continuation: exactly one of payload/err is
// meaningful.
type recvFn = func(ctx *des.Ctx, payload []byte, err error)

// ErrEventEngineOnly rejects event-API calls on a goroutine-engine
// network (no scheduler to ride).
var ErrEventEngineOnly = fmt.Errorf("netsim: event API requires the discrete-event engine")

// DeviceHome is the scheduling home the engine uses for a device —
// where deliveries toward it, its dial completions and its teardown
// callbacks run. Workload drivers should schedule their own events on
// it too: everything about one device then executes in event order on
// one shard, so driver state needs no locks.
func DeviceHome(dev ids.DeviceID) uint64 { return homeOf(dev) }

// DialEvent is Dial for event callers: it charges the PHY
// connection-setup time as a scheduled event instead of a clock wait
// and hands the dialer end to fn inside the completion event. Failures
// (unreachable, no listener, closed network) reach fn with a nil conn;
// pre-flight failures invoke fn synchronously. The listener side must
// have an AcceptEvent handler (or free Accept backlog) to take the
// peer end.
func (n *Network) DialEvent(ctx *des.Ctx, from, to ids.DeviceID, tech radio.Technology, port string, fn func(ctx *des.Ctx, c *Conn, err error)) {
	n.counters.dialsAttempted.Add(1)
	if n.sched == nil {
		fn(ctx, nil, ErrEventEngineOnly)
		return
	}
	if !tech.Valid() {
		fn(ctx, nil, fmt.Errorf("netsim: dial: invalid technology %v", tech))
		return
	}
	a, b := n.node(from), n.node(to)
	if !n.linkUp(a, b, tech) {
		fn(ctx, nil, fmt.Errorf("%w: %s -> %s over %v", ErrUnreachable, from, to, tech))
		return
	}
	setup := n.env.Scale().ToReal(n.env.PHY(tech).ConnectSetup)
	ctx.At(setup, a.home, func(ctx *des.Ctx) {
		n.finishDialEvent(ctx, a, b, tech, port, fn)
	})
}

// finishDialEvent is the setup-complete half of DialEvent: link
// recheck (the peer may have walked away while paging), listener
// lookup, pair construction, accept handoff.
func (n *Network) finishDialEvent(ctx *des.Ctx, from, to *node, tech radio.Technology, port string, fn func(ctx *des.Ctx, c *Conn, err error)) {
	n.sched.Bump()
	if !n.linkUp(from, to, tech) {
		fn(ctx, nil, fmt.Errorf("%w: %s -> %s over %v (lost during setup)", ErrUnreachable, from.dev, to.dev, tech))
		return
	}
	n.mu.Lock()
	l, ok := n.listeners[portKey{dev: to.dev, port: port}]
	closed := n.closed
	n.mu.Unlock()
	if closed {
		fn(ctx, nil, ErrNetworkClosed)
		return
	}
	if !ok {
		fn(ctx, nil, fmt.Errorf("%w: %s on %s", ErrNoListener, port, to.dev))
		return
	}
	local, remote := newConnPair(n, from, to, tech, port)
	accept := l.acceptHandler()
	if accept == nil {
		// No event handler: fall back to the Accept queue, but an event
		// cannot park on a full backlog the way Dial does.
		select {
		case l.incoming <- remote:
		default:
			local.Abort()
			remote.releaseUser() // never handed to an acceptor
			fn(ctx, nil, fmt.Errorf("%w: %s on %s (accept backlog full)", ErrNoListener, port, to.dev))
			return
		}
		n.counters.connsEstablished.Add(1)
		fn(ctx, local, nil)
		return
	}
	n.counters.connsEstablished.Add(1)
	// The handler runs inside this event, before the dialer's
	// continuation, so the serving side (typically arming its first
	// RecvEvent) is in place before any message can be sent.
	accept(ctx, remote)
	fn(ctx, local, nil)
}

// AcceptEvent registers fn as the event-mode accept handler: every
// connection dialed to this listener through DialEvent is handed to fn
// synchronously inside the dial-completion event — the O(1) stand-in
// for an Accept loop plus per-conn handler goroutine. Do not mix with
// a concurrent Accept loop on the same listener.
func (l *Listener) AcceptEvent(fn func(ctx *des.Ctx, c *Conn)) {
	l.acceptMu.Lock()
	l.acceptFn = fn
	l.acceptMu.Unlock()
}

// acceptHandler returns the registered event-mode accept handler, or
// nil.
func (l *Listener) acceptHandler() func(ctx *des.Ctx, c *Conn) {
	l.acceptMu.Lock()
	defer l.acceptMu.Unlock()
	return l.acceptFn
}

// SendEvent is Send for event callers: same fate draw, airtime ledger
// and in-order delivery scheduling as Send, but the delivery event's
// key derives from the calling event (Ctx.At, replayable) and
// admission cannot park — a full in-flight window fails fast with
// ErrSendTimeout, the outcome a blocked Send would reach at its
// deadline. Event drivers that await delivery (RecvEvent) between
// sends never see it.
func (c *Conn) SendEvent(ctx *des.Ctx, payload []byte) error {
	if c.des == nil {
		return ErrEventEngineOnly
	}
	c.ops.Add(1)
	defer c.ops.Add(-1)
	c.net.sched.Bump()
	msg := make([]byte, len(payload))
	copy(msg, payload)
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		return c.errOrClosed()
	}
	select {
	case <-c.closed:
		c.mu.Unlock()
		return c.errOrClosed()
	default:
	}
	c.mu.Unlock()
	select {
	case c.des.slots <- struct{}{}:
	default:
		return ErrSendTimeout
	}
	c.desLaunch(msg, ctx.At)
	return nil
}

// RecvEvent is Recv for event callers: it delivers the next in-order
// message to fn — immediately (inside this event) when one is queued,
// otherwise from the delivery event that produces it. A dead conn with
// nothing left queued reaches fn as an error. One RecvEvent may be
// outstanding per conn end; arming a second replaces the first.
func (c *Conn) RecvEvent(ctx *des.Ctx, fn recvFn) {
	if c.des == nil {
		fn(ctx, nil, ErrEventEngineOnly)
		return
	}
	c.ops.Add(1)
	defer c.ops.Add(-1)
	c.net.sched.Bump()
	d := c.des
	d.mu.Lock()
	c.desFlushLocked()
	if msg, ok := d.popLocked(); ok {
		d.mu.Unlock()
		fn(ctx, msg, nil)
		return
	}
	if !c.Alive() {
		d.mu.Unlock()
		fn(ctx, nil, c.errOrClosed())
		return
	}
	d.waiter = fn
	d.mu.Unlock()
}

// desCloseRetries caps CloseEvent's flush polling at the modeled
// equivalent of closeFlushTimeout (retry interval desFlushRetry), the
// same bound Close puts on a peer that stops reading.
const desCloseRetries = int(closeFlushTimeout / desFlushRetry)

// CloseEvent is Close for event callers: it flushes messages this end
// has sent but the scheduler has not yet delivered — polling in
// modeled time instead of parking a goroutine on a WaitGroup — then
// fails both ends. Messages the peer has not read remain readable
// (RecvEvent drains them before reporting the close).
func (c *Conn) CloseEvent(ctx *des.Ctx) {
	if c.des == nil {
		_ = c.Close()
		return
	}
	if !c.released.CompareAndSwap(false, true) {
		return // duplicate release (see Close)
	}
	c.mu.Lock()
	c.closing = true
	c.mu.Unlock()
	// The user hold itself carries the flush chain until teardown.
	c.desCloseFlush(ctx, 0)
}

// desCloseFlush reschedules itself while this end's sent messages are
// still in flight, then tears the pair down and drops the user hold
// carried through the chain.
func (c *Conn) desCloseFlush(ctx *des.Ctx, tries int) {
	c.net.sched.Bump()
	if c.Alive() && len(c.des.slots) > 0 && tries < desCloseRetries {
		ctx.At(c.net.env.Scale().ToReal(desFlushRetry), c.local.home, func(ctx *des.Ctx) {
			c.desCloseFlush(ctx, tries+1)
		})
		return
	}
	c.desTeardown(ctx, ErrConnClosed)
	c.unref()
}
