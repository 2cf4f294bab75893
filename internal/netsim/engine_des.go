package netsim

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/ids"
	"repro/internal/radio"
)

// This file is the event-driven half of the engine seam: a Network
// bound to a des.Scheduler (NewDES) has no per-connection pump
// goroutines and no shared sweeper goroutine. Send draws the message's
// fate immediately and schedules a delivery event at the instant the
// modeled transfer completes; the link sweep runs the shared sweep body
// (sweep.go) from a self-rescheduling event; broadcast fan-out and dial
// setup ride the scheduler's Clock. The goroutine engine (conn.go pump)
// remains the differential oracle at small n — the simtest suite holds
// the two engines to identical delivered bytes, fault counters and
// group membership.
//
// Semantics preserved relative to the pump:
//   - per-direction messages deliver in msgSeq order (a receive-side
//     sequence gate, so even clamped event times cannot reorder);
//   - airtime is serialized per (device, technology): each message's
//     transmission starts when the radio frees, holding it for
//     (1+retransmits) x transfer — the event-time ledger equivalent of
//     the pump's txLock;
//   - admission backpressure: at most sendQueueLen messages in flight
//     per direction (the sendQ capacity), with the receive queue
//     buffering another sendQueueLen, so Send blocks at the same
//     outstanding-unread depth as the goroutine engine;
//   - fate order per message: retransmit accounting, reset, delay,
//     corruption, link recheck, delivery — byte-for-byte the pump's.
const (
	// desFlushRetry is the modeled pause before a delivery parked on a
	// full receive queue retries; the goroutine pump blocks on the
	// queue directly, an event must poll.
	desFlushRetry = time.Millisecond
)

// homeOf maps a device to a stable 64-bit scheduling home, so all
// deliveries toward one device land on one shard in a deterministic
// spot that never depends on shard count.
func homeOf(dev ids.DeviceID) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(dev))
	return h.Sum64()
}

// desMsg is one in-flight message in the event engine.
type desMsg struct {
	seq     uint64
	payload []byte
	fate    faults.Fate
	plan    *faults.Plan
}

// desConnState is one conn end's event-engine state. The send side
// (msgSeq, dirFree, slots) covers messages this end transmits; the
// receive side (nextRecv, early, rbuf) keeps arrivals from the peer in
// msgSeq order and parks them when the receive queue is full.
type desConnState struct {
	// slots is the admission semaphore: sending pushes a token
	// (blocking at sendQueueLen in flight), delivery/drop pops it.
	slots chan struct{}

	mu     sync.Mutex
	msgSeq uint64
	// dirFree is the virtual instant (scheduler ns) when this
	// direction's latest delivery lands; later messages never deliver
	// at or before it, so the serial-pipeline shape of the pump holds.
	dirFree int64

	nextRecv uint64
	early    map[uint64]*desMsg
	rbuf     []*desMsg
	armed    bool // a flush retry event is scheduled

	// waiter is the parked RecvEvent continuation (events.go), invoked
	// by the delivery or teardown event that produces its outcome; nil
	// when no event receive is outstanding.
	waiter recvFn
}

// reset prepares this end's event state for a new pair incarnation.
// The admission semaphore and reorder map are allocated once and
// survive recycling; fresh marks a pair that has never been through
// the pool.
func (d *desConnState) reset(fresh bool) {
	if fresh {
		d.slots = make(chan struct{}, sendQueueLen)
		d.early = make(map[uint64]*desMsg)
	}
	d.msgSeq = 0
	d.dirFree = 0
	d.nextRecv = 1
	d.rbuf = d.rbuf[:0]
	d.armed = false
	d.waiter = nil
}

// drain empties the recyclable state at pair recycle time. No holder
// is left (refs hit zero), so plain access is safe.
func (d *desConnState) drain() {
	for len(d.slots) > 0 {
		<-d.slots
	}
	for k := range d.early {
		delete(d.early, k)
	}
	d.rbuf = d.rbuf[:0]
	d.waiter = nil
}

// desAirFree advances the (device, technology) airtime ledger: the
// returned start is when the radio frees (or now, if idle), and the
// radio is then held for busy beyond it.
func (n *Network) desAirFree(dev ids.DeviceID, tech radio.Technology, now int64, busy time.Duration) (start int64) {
	key := txKey{dev: dev, tech: tech}
	n.airMu.Lock()
	defer n.airMu.Unlock()
	start = n.airFree[key]
	if start < now {
		start = now
	}
	n.airFree[key] = start + int64(busy)
	return start
}

// desSend is the event engine's Send/SendDeadline: admission against
// the in-flight semaphore, an immediate fate draw, and one delivery
// event at the instant the modeled transfer completes.
func (c *Conn) desSend(payload []byte, deadline <-chan time.Time, cancel <-chan struct{}) error {
	sched := c.net.sched
	sched.Bump()
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

	// Admission: the fast path takes a free slot without parking; the
	// slow path parks until delivery frees one, the conn dies, or the
	// deadline fires — the same outcomes a full sendQ gives the
	// goroutine engine.
	select {
	case c.des.slots <- struct{}{}:
	default:
		select {
		case c.des.slots <- struct{}{}:
		case <-c.closed:
			return c.errOrClosed()
		case <-deadline:
			return ErrSendTimeout
		case <-cancel:
			return ErrSendTimeout
		}
	}
	c.desLaunch(msg, sched.At)
	return nil
}

// desLaunch draws an admitted message's fate, advances the airtime and
// per-direction delivery ledgers, and schedules the delivery event
// through at — Scheduler.At for live-goroutine senders, Ctx.At for
// event senders (which keys the delivery from the calling event, so
// pure event-driver cascades replay byte-for-byte).
func (c *Conn) desLaunch(msg []byte, at func(d time.Duration, home uint64, fn func(ctx *des.Ctx))) {
	env := c.net.env
	scale := env.Scale()
	phy := env.PHY(c.tech)
	plan := c.net.faultPlan()
	transfer := phy.TransferTime(len(msg))
	var fate faults.Fate
	var stall time.Duration

	d := c.des
	d.mu.Lock()
	d.msgSeq++
	seq := d.msgSeq
	if plan != nil {
		elapsed := env.Elapsed()
		transfer = plan.ScaleTransfer(transfer, elapsed)
		fate = plan.MessageFate(c.local, c.remote, c.connSeq, seq, elapsed)
		if plan.AffectsEndpoints() {
			transfer = time.Duration(float64(transfer) * plan.ServeScale(c.local, elapsed))
			stall = plan.StallDelay(c.local, c.remote, c.connSeq, seq, elapsed)
		}
	}
	charges := time.Duration(1 + fate.Retransmits)
	busy := charges * scale.ToReal(transfer)
	now := c.net.sched.NowNS()
	// The pump's shape: stall first (not holding the radio), then the
	// radio for every charge, then the fate's extra delay.
	ready := now + int64(scale.ToReal(stall))
	txStart := c.net.desAirFree(c.local, c.tech, ready, busy)
	deliverAt := txStart + int64(busy) + int64(scale.ToReal(fate.Delay))
	if deliverAt <= d.dirFree {
		deliverAt = d.dirFree + 1
	}
	d.dirFree = deliverAt
	d.mu.Unlock()

	c.pending.Add(1)
	m := &desMsg{seq: seq, payload: msg, fate: fate, plan: plan}
	c.pair.ref() // the delivery event holds the pair until it runs
	at(time.Duration(deliverAt-now), homeOf(c.remote), func(ctx *des.Ctx) {
		defer c.unref()
		c.desDeliver(ctx, m)
	})
}

// desRelease returns one message's admission: the sender's pending
// count and in-flight slot.
func (c *Conn) desRelease() {
	c.pending.Done()
	<-c.des.slots
}

// desDeliver is the delivery event for one message this end sent: it
// applies the drawn fate in the pump's exact order and hands the
// payload to the peer's ordered receive path.
func (c *Conn) desDeliver(ctx *des.Ctx, m *desMsg) {
	n := c.net
	n.sched.Bump()
	if !c.Alive() {
		c.desAbandon()
		return
	}
	if m.fate.Retransmits > 0 {
		n.counters.messagesRetransmitted.Add(uint64(m.fate.Retransmits))
	}
	if m.fate.Reset {
		c.desAbandon()
		n.counters.linkFailures.Add(1)
		c.desTeardown(ctx, fmt.Errorf("%w: %s -> %s over %v (retransmission budget exhausted)", ErrLinkLost, c.local, c.remote, c.tech))
		return
	}
	if m.fate.Corrupt {
		m.payload = m.plan.Corrupt(m.payload, c.local, c.remote, c.connSeq, m.seq)
		n.counters.messagesCorrupted.Add(1)
	}
	if !n.linkUp(c.local, c.remote, c.tech) {
		c.desAbandon()
		n.counters.linkFailures.Add(1)
		c.desTeardown(ctx, fmt.Errorf("%w: %s -> %s over %v", ErrLinkLost, c.local, c.remote, c.tech))
		return
	}
	p := c.peer
	p.des.mu.Lock()
	if m.seq != p.des.nextRecv {
		// A clamped event time let this message outrun an earlier one:
		// park it; the sequence gate delivers it in order.
		p.des.early[m.seq] = m
		p.des.mu.Unlock()
		return
	}
	p.des.enqueueLocked(m)
	arm := p.desFlushLocked() && !p.des.armed
	if arm {
		p.des.armed = true
	}
	fn, payload, ok := p.desPopWaiterLocked()
	p.des.mu.Unlock()
	if arm {
		p.pair.ref()
		ctx.At(n.env.Scale().ToReal(desFlushRetry), homeOf(c.remote), p.desFlushEventRef)
	}
	if ok {
		fn(ctx, payload, nil)
	}
}

// desPopWaiterLocked pairs the armed RecvEvent waiter with the next
// queued payload; both must exist. Callers hold des.mu and invoke the
// returned continuation after unlocking. This event runs on
// homeOf(receiver) — the same home every delivery to this end uses —
// so waiter hand-off order is the event order, not a race.
func (c *Conn) desPopWaiterLocked() (recvFn, []byte, bool) {
	if c.des.waiter == nil {
		return nil, nil, false
	}
	select {
	case msg := <-c.recvQ:
		fn := c.des.waiter
		c.des.waiter = nil
		return fn, msg, true
	default:
		return nil, nil, false
	}
}

// desTeardown fails both ends from inside an event: armed RecvEvent
// waiters are popped first and their error callbacks scheduled as
// children of this event — keyed by the cascade, not the global
// counter, so event-driver teardown replays byte-for-byte. The
// callback drains any already-delivered message before reporting the
// close, matching Recv's drain-after-close.
func (c *Conn) desTeardown(ctx *des.Ctx, err error) {
	ends := [2]*Conn{c, c.peer}
	var fns [2]recvFn
	for i, e := range ends {
		e.des.mu.Lock()
		fns[i] = e.des.waiter
		e.des.waiter = nil
		e.des.mu.Unlock()
	}
	c.failBoth(err)
	for i, fn := range fns {
		if fn == nil {
			continue
		}
		e, fn := ends[i], fn
		e.pair.ref()
		ctx.At(0, homeOf(e.local), func(ctx *des.Ctx) {
			defer e.unref()
			select {
			case msg := <-e.recvQ:
				fn(ctx, msg, nil)
			default:
				fn(ctx, nil, e.errOrClosed())
			}
		})
	}
}

// desNotifyWaiter is the fail-path hook for conn deaths that happen
// outside any event (network close, abort, the goroutine-driver
// oracle): it schedules the armed waiter's error callback through the
// global counter. Event-path teardown (desTeardown) pops the waiter
// first, so this never double-fires.
func (c *Conn) desNotifyWaiter() {
	c.des.mu.Lock()
	fn := c.des.waiter
	c.des.waiter = nil
	c.des.mu.Unlock()
	if fn == nil {
		return
	}
	c.pair.ref()
	c.net.sched.At(0, homeOf(c.local), func(ctx *des.Ctx) {
		defer c.unref()
		select {
		case msg := <-c.recvQ:
			fn(ctx, msg, nil)
		default:
			fn(ctx, nil, c.errOrClosed())
		}
	})
}

// enqueueLocked appends an in-sequence arrival and pulls any parked
// successors after it. Callers hold des.mu.
func (d *desConnState) enqueueLocked(m *desMsg) {
	d.rbuf = append(d.rbuf, m)
	d.nextRecv++
	for {
		next, ok := d.early[d.nextRecv]
		if !ok {
			return
		}
		delete(d.early, d.nextRecv)
		d.rbuf = append(d.rbuf, next)
		d.nextRecv++
	}
}

// desFlushLocked moves parked arrivals into the receive queue while
// there is room, charging the delivery counters and returning the
// sender's admission per message — the event-engine twin of the pump's
// recvQ handoff. It reports whether messages remain parked. Callers
// hold c.des.mu; c is the RECEIVING end (the messages came from
// c.peer).
func (c *Conn) desFlushLocked() bool {
	for len(c.des.rbuf) > 0 {
		m := c.des.rbuf[0]
		c.net.counters.deliver(len(m.payload))
		select {
		case c.recvQ <- m.payload:
		default:
			c.net.counters.undeliver(len(m.payload))
			return true // receive queue full: retry event takes over
		}
		c.des.rbuf = c.des.rbuf[1:]
		c.peer.desRelease()
	}
	return false
}

// desFlushEvent retries parked deliveries; it re-arms itself while the
// backlog lasts and drains the backlog outright once the conn dies.
func (c *Conn) desFlushEvent(ctx *des.Ctx) {
	c.net.sched.Bump()
	if !c.Alive() {
		c.desDrainReceiver()
		return
	}
	c.des.mu.Lock()
	again := c.desFlushLocked()
	c.des.armed = again
	fn, payload, ok := c.desPopWaiterLocked()
	c.des.mu.Unlock()
	if again {
		c.pair.ref()
		ctx.At(c.net.env.Scale().ToReal(desFlushRetry), homeOf(c.local), c.desFlushEventRef)
	}
	if ok {
		fn(ctx, payload, nil)
	}
}

// desFlushEventRef runs desFlushEvent under the pair hold its
// scheduling site took; every flush-retry arm pairs ref() with this
// wrapper so a parked retry can never outlive its pair.
func (c *Conn) desFlushEventRef(ctx *des.Ctx) {
	defer c.unref()
	c.desFlushEvent(ctx)
}

// desAbandon drops the in-hand undeliverable message plus everything
// parked on the same direction, returning every admission so Close
// never waits on traffic that can no longer flow. c is the SENDING
// end.
func (c *Conn) desAbandon() {
	c.desRelease()
	c.peer.desDrainReceiver()
}

// desDrainReceiver clears this end's parked arrivals (in-order backlog
// and out-of-order waiters), returning each message's admission to the
// sending peer.
func (c *Conn) desDrainReceiver() {
	d := c.des
	d.mu.Lock()
	dropped := len(d.rbuf) + len(d.early)
	d.rbuf = nil
	for k := range d.early {
		delete(d.early, k)
	}
	d.mu.Unlock()
	for i := 0; i < dropped; i++ {
		c.peer.desRelease()
	}
}
