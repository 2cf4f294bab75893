package netsim

import (
	"context"
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
//     (1+retransmits) x transfer — the event-time ledger (node.freeAt)
//     equivalent of the pump's transmit lock (node.tx);
//   - admission backpressure: at most sendQueueLen messages in flight
//     per direction (the sendQ capacity), with the receive queue
//     buffering another sendQueueLen, so Send blocks at the same
//     outstanding-unread depth as the goroutine engine. The receive
//     queue is a slice under the end's own lock (delivery already holds
//     it), not a channel: a channel's buffer is allocated up front,
//     and a blocking Recv only needs a one-slot wake;
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
// msgSeq order and parks them when the receive queue (inbox) is full.
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
	early    map[uint64]*desMsg // made on first use
	rbuf     []*desMsg
	armed    bool // a flush retry event is scheduled

	// inbox[head:] is the receive queue: delivered messages not yet
	// read, at most sendQueueLen of them.
	inbox [][]byte
	head  int

	// parked counts blocking Recv callers waiting on an empty inbox;
	// wake (capacity 1) rouses them when a delivery lands.
	parked int
	wake   chan struct{}

	// waiter is the parked RecvEvent continuation (events.go), invoked
	// by the delivery or teardown event that produces its outcome; nil
	// when no event receive is outstanding.
	waiter recvFn
}

// reset prepares this end's event state for a new pair incarnation.
// The admission semaphore, wake channel, reorder map and receive
// buffer survive recycling; fresh marks a pair that has never been
// through the pool.
func (d *desConnState) reset(fresh bool) {
	if fresh {
		d.slots = make(chan struct{}, sendQueueLen)
		d.wake = make(chan struct{}, 1)
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
	clear(d.early)
	d.rbuf = d.rbuf[:0]
	clear(d.inbox)
	d.inbox, d.head = d.inbox[:0], 0
	select {
	case <-d.wake:
	default:
	}
	d.waiter = nil
}

// queued reports how many delivered messages await a reader. Callers
// hold mu.
func (d *desConnState) queued() int { return len(d.inbox) - d.head }

// pushLocked appends a delivered message to the receive queue, which
// the caller has checked has room, and wakes a parked Recv. Callers
// hold mu.
func (d *desConnState) pushLocked(msg []byte) {
	if d.head > 0 && len(d.inbox) == cap(d.inbox) {
		// Slide the unread tail down before growing.
		k := copy(d.inbox, d.inbox[d.head:])
		clear(d.inbox[k:])
		d.inbox, d.head = d.inbox[:k], 0
	}
	d.inbox = append(d.inbox, msg)
	d.wakeLocked()
}

// popLocked takes the oldest delivered message, waking the next parked
// Recv if more remain. Callers hold mu.
func (d *desConnState) popLocked() ([]byte, bool) {
	if d.head == len(d.inbox) {
		return nil, false
	}
	msg := d.inbox[d.head]
	d.inbox[d.head] = nil
	d.head++
	if d.head == len(d.inbox) {
		d.inbox, d.head = d.inbox[:0], 0
	} else {
		d.wakeLocked()
	}
	return msg, true
}

// wakeLocked signals wake when a blocking Recv is parked; the one slot
// coalesces signals, and a woken Recv that finds more queued passes
// the signal on (popLocked). Callers hold mu.
func (d *desConnState) wakeLocked() {
	if d.parked == 0 {
		return
	}
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// desRecv is the event engine's blocking Recv: take the oldest
// delivered message, or park on the wake channel until a delivery, the
// conn's death or ctx. Messages delivered before a link loss remain
// readable.
func (c *Conn) desRecv(ctx context.Context) ([]byte, error) {
	d := c.des
	for {
		d.mu.Lock()
		if msg, ok := d.popLocked(); ok {
			d.mu.Unlock()
			return msg, nil
		}
		if !c.Alive() {
			d.mu.Unlock()
			return nil, c.errOrClosed()
		}
		d.parked++
		d.mu.Unlock()
		var err error
		select {
		case <-d.wake:
		case <-c.closed:
		case <-ctx.Done():
			err = ctx.Err()
		}
		d.mu.Lock()
		d.parked--
		d.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
}

// claimAir advances the device's airtime ledger for tech: the returned
// start is when the radio frees (or ready, if idle sooner), and the
// radio is then held for busy beyond it.
func (d *node) claimAir(tech radio.Technology, ready int64, busy time.Duration) (start int64) {
	d.airMu.Lock()
	defer d.airMu.Unlock()
	start = max(d.freeAt[tech], ready)
	d.freeAt[tech] = start + int64(busy)
	return start
}

// desSend is the event engine's Send/SendDeadline: admission against
// the in-flight semaphore, an immediate fate draw, and one delivery
// event at the instant the modeled transfer completes.
func (c *Conn) desSend(payload []byte, timeout time.Duration, cancel <-chan struct{}) error {
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
	// slow path arms the deadline and parks until delivery frees one,
	// the conn dies, or the deadline fires — the same outcomes a full
	// sendQ gives the goroutine engine.
	select {
	case c.des.slots <- struct{}{}:
	default:
		expired, stop := c.sendTimer(timeout)
		defer stop()
		select {
		case c.des.slots <- struct{}{}:
		case <-c.closed:
			return c.errOrClosed()
		case <-expired:
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
		fate = plan.MessageFate(c.local.dev, c.remote.dev, c.connSeq, seq, elapsed)
		if plan.AffectsEndpoints() {
			transfer = time.Duration(float64(transfer) * plan.ServeScale(c.local.dev, elapsed))
			stall = plan.StallDelay(c.local.dev, c.remote.dev, c.connSeq, seq, elapsed)
		}
	}
	charges := time.Duration(1 + fate.Retransmits)
	busy := charges * scale.ToReal(transfer)
	now := c.net.sched.NowNS()
	// The pump's shape: stall first (not holding the radio), then the
	// radio for every charge, then the fate's extra delay.
	ready := now + int64(scale.ToReal(stall))
	txStart := c.local.claimAir(c.tech, ready, busy)
	deliverAt := txStart + int64(busy) + int64(scale.ToReal(fate.Delay))
	if deliverAt <= d.dirFree {
		deliverAt = d.dirFree + 1
	}
	d.dirFree = deliverAt
	d.mu.Unlock()

	c.pending.Add(1)
	m := &desMsg{seq: seq, payload: msg, fate: fate, plan: plan}
	c.pair.ref() // the delivery event holds the pair until it runs
	at(time.Duration(deliverAt-now), c.remote.home, func(ctx *des.Ctx) {
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
	// A link loss tears the conn down before releasing the message, as
	// the pump does, so a Close waiting on the flush finds it counted.
	if m.fate.Reset {
		c.desTeardown(ctx, fmt.Errorf("%w: %s -> %s over %v (retransmission budget exhausted)", ErrLinkLost, c.local.dev, c.remote.dev, c.tech))
		c.desAbandon()
		return
	}
	if m.fate.Corrupt {
		m.payload = m.plan.Corrupt(m.payload, c.local.dev, c.remote.dev, c.connSeq, m.seq)
		n.counters.messagesCorrupted.Add(1)
	}
	if !n.linkUp(c.local, c.remote, c.tech) {
		c.desTeardown(ctx, fmt.Errorf("%w: %s -> %s over %v", ErrLinkLost, c.local.dev, c.remote.dev, c.tech))
		c.desAbandon()
		return
	}
	p := c.peer
	p.des.mu.Lock()
	if m.seq != p.des.nextRecv {
		// A clamped event time let this message outrun an earlier one:
		// park it; the sequence gate delivers it in order.
		if p.des.early == nil {
			p.des.early = make(map[uint64]*desMsg)
		}
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
		ctx.At(n.env.Scale().ToReal(desFlushRetry), p.local.home, p.desFlushEventRef)
	}
	if ok {
		fn(ctx, payload, nil)
	}
}

// desPopWaiterLocked pairs the armed RecvEvent waiter with the next
// queued payload; both must exist. Callers hold des.mu and invoke the
// returned continuation after unlocking. This event runs on the
// receiver's home — the same home every delivery to this end uses —
// so waiter hand-off order is the event order, not a race.
func (c *Conn) desPopWaiterLocked() (recvFn, []byte, bool) {
	if c.des.waiter == nil {
		return nil, nil, false
	}
	msg, ok := c.des.popLocked()
	if !ok {
		return nil, nil, false
	}
	fn := c.des.waiter
	c.des.waiter = nil
	return fn, msg, true
}

// desWaiterOutcome is a popped waiter's callback after the conn died:
// the next delivered message if one is left, else the close.
func (c *Conn) desWaiterOutcome(ctx *des.Ctx, fn recvFn) {
	c.des.mu.Lock()
	msg, ok := c.des.popLocked()
	c.des.mu.Unlock()
	if ok {
		fn(ctx, msg, nil)
		return
	}
	fn(ctx, nil, c.errOrClosed())
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
		ctx.At(0, e.local.home, func(ctx *des.Ctx) {
			defer e.unref()
			e.desWaiterOutcome(ctx, fn)
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
	c.net.sched.At(0, c.local.home, func(ctx *des.Ctx) {
		defer c.unref()
		c.desWaiterOutcome(ctx, fn)
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
		if c.des.queued() >= sendQueueLen {
			return true // receive queue full: retry event takes over
		}
		m := c.des.rbuf[0]
		c.net.counters.deliver(len(m.payload))
		c.des.pushLocked(m.payload)
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
		ctx.At(c.net.env.Scale().ToReal(desFlushRetry), c.local.home, c.desFlushEventRef)
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
