package netsim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/ids"
	"repro/internal/radio"
)

// Conn is one end of a reliable, ordered, message-oriented connection.
// Messages are delivered in order after the PHY transfer time; when the
// radio link breaks (range exit, power off, partition) both ends fail
// with ErrLinkLost.
//
// Lifecycle contract: an end belongs to its holder until the holder's
// first Close or Abort; operations racing with (or following) that
// end's own Close/Abort are a misuse. The connection tolerates it —
// the ops valve below keeps a straggler from ever touching a recycled
// pair — but such a pair is leaked to the garbage collector instead of
// reused.
type Conn struct {
	net *Network
	// local and remote are the two devices' transport records, resolved
	// when the dial started.
	local, remote *node
	tech          radio.Technology
	port          string

	// connSeq numbers this connection on its directed dialer pair; with
	// the pump's per-message index it keys the deterministic fault
	// draws. Both ends share the value.
	connSeq uint64

	peer *Conn     // other end
	pair *connPair // shared allocation unit both ends live in

	// sendQ and recvQ are the goroutine engine's queues; nil on the
	// event engine, whose ends queue in des.
	sendQ chan []byte
	recvQ chan []byte

	mu      sync.Mutex
	err     error
	closing bool
	pending sync.WaitGroup // accepted sends not yet delivered or dropped
	closed  chan struct{}
	failed  atomic.Bool // fail() has run (first caller wins)

	// released latches this end's user hold being dropped: the first
	// Close or Abort wins, later ones are no-ops.
	released atomic.Bool

	// ops counts user operations (Send/Recv variants) currently inside
	// this end. A nonzero count when the last pair reference drops means
	// a straggler raced its own end's close; the pair is then orphaned
	// to the GC rather than recycled under the straggler.
	ops atomic.Int32

	// des holds this end's event-engine state (engine_des.go); nil on
	// the goroutine engine.
	des *desConnState
}

// connPair owns both connection ends and their event-engine state in
// one allocation, recycled through the network's pair pool when every
// holder lets go. refs counts the holders: the two user ends (dropped
// at each end's first Close/Abort), the pump goroutines on the
// goroutine engine, every scheduled delivery/teardown/flush event on
// the event engine, Close's flush waiter, and transient holds the link
// sweeps take while failing dead conns outside the network lock.
type connPair struct {
	ends [2]Conn
	des  [2]desConnState
	refs atomic.Int32
	// ended latches the first fail of either end: the connection ends
	// there, and a link loss counts there, once.
	ended atomic.Bool
}

func (p *connPair) ref() { p.refs.Add(1) }

// unref drops one hold on this end's pair; the last drop recycles it.
func (c *Conn) unref() {
	if c.pair.refs.Add(-1) == 0 {
		c.net.recyclePair(c.pair)
	}
}

// releaseUser drops this end's user hold exactly once.
func (c *Conn) releaseUser() {
	if c.released.CompareAndSwap(false, true) {
		c.unref()
	}
}

// recyclePair returns a fully-released pair to the pool. If a
// straggler operation is still inside either end — a caller racing its
// own end's Close/Abort, which the contract forbids but the valve
// tolerates — the pair is orphaned to the garbage collector instead:
// correctness over reuse.
func (n *Network) recyclePair(p *connPair) {
	if p.ends[0].ops.Load() != 0 || p.ends[1].ops.Load() != 0 {
		return
	}
	for i := range p.ends {
		c := &p.ends[i]
		if c.des != nil {
			c.des.drain()
			continue
		}
		drainQ(c.recvQ)
		drainQ(c.sendQ)
	}
	n.pairPool.Put(p)
}

func drainQ(q chan []byte) {
	for {
		select {
		case <-q:
		default:
			return
		}
	}
}

// newConnPair wires up both ends and starts their pumps; registering
// the dialer end with the network enrolls the pair in the shared link
// sweep (sweep.go). It returns (dialer end, listener end).
// Pairs come from the network's pool: connection churn dominated the
// allocation profile at scale, and the big pieces — the goroutine
// engine's queues, the event engine's admission semaphores and receive
// buffers — survive from one incarnation to the next.
func newConnPair(n *Network, from, to *node, tech radio.Technology, port string) (*Conn, *Conn) {
	seq := n.nextConnSeq(from.dev, to.dev)
	p, _ := n.pairPool.Get().(*connPair)
	fresh := p == nil
	if fresh {
		p = &connPair{}
	}
	a, b := &p.ends[0], &p.ends[1]
	a.reset(n, p, from, to, tech, port, seq)
	b.reset(n, p, to, from, tech, port, seq)
	a.peer, b.peer = b, a
	p.refs.Store(2) // one user hold per end
	p.ended.Store(false)
	if n.sched != nil {
		// Event engine: no pumps; Send schedules delivery events, and
		// the admission semaphore replaces the transmit queue.
		a.des, b.des = &p.des[0], &p.des[1]
		a.des.reset(fresh)
		b.des.reset(fresh)
		n.trackConn(a)
		return a, b
	}
	if fresh {
		for _, c := range []*Conn{a, b} {
			c.sendQ = make(chan []byte, sendQueueLen)
			c.recvQ = make(chan []byte, sendQueueLen)
		}
	}
	p.refs.Add(2) // one hold per pump
	n.trackConn(a)
	go a.pump()
	go b.pump()
	return a, b
}

// reset prepares one end for a new incarnation. The queues persist
// across incarnations (drained at recycle) — they are the bulk of a
// pair's allocation cost; the closed channel must be fresh, since the
// previous incarnation's has fired.
func (c *Conn) reset(n *Network, p *connPair, local, remote *node, tech radio.Technology, port string, seq uint64) {
	c.net, c.pair = n, p
	c.local, c.remote, c.tech, c.port, c.connSeq = local, remote, tech, port, seq
	c.err = nil
	c.closing = false
	c.closed = make(chan struct{})
	c.failed.Store(false)
	c.released.Store(false)
}

// Local returns the device this end belongs to.
func (c *Conn) Local() ids.DeviceID { return c.local.dev }

// Remote returns the device at the other end.
func (c *Conn) Remote() ids.DeviceID { return c.remote.dev }

// Technology returns the radio technology carrying the connection.
func (c *Conn) Technology() radio.Technology { return c.tech }

// Port returns the service port this connection was dialed to.
func (c *Conn) Port() string { return c.port }

// Send enqueues a message for in-order delivery to the peer. It blocks
// only if the transmit queue is full.
func (c *Conn) Send(payload []byte) error {
	return c.send(payload, 0, nil)
}

// SendDeadline is Send with a deadline on queue admission: when the
// transmit queue is still full after timeout of modeled time — the
// signature of a peer that has stopped reading — it gives up with
// ErrSendTimeout instead of blocking the caller forever. Servers pass
// their write timeout here so one stalled reader cannot wedge a
// serving goroutine. The timer is armed only when the send has to wait
// for queue room, so a send that finds room costs no timer; a timeout
// <= 0 waits like Send.
func (c *Conn) SendDeadline(payload []byte, timeout time.Duration) error {
	return c.send(payload, timeout, nil)
}

// SendCancel is Send with a cancellation channel on queue admission:
// when cancel fires first the send gives up with ErrSendTimeout.
// Pipelines use it so a peer that stops reading cannot park a relay
// goroutine past its bridge's lifetime.
func (c *Conn) SendCancel(payload []byte, cancel <-chan struct{}) error {
	return c.send(payload, 0, cancel)
}

func (c *Conn) send(payload []byte, timeout time.Duration, cancel <-chan struct{}) error {
	c.ops.Add(1)
	defer c.ops.Add(-1)
	if c.des != nil {
		return c.desSend(payload, timeout, cancel)
	}
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
	c.pending.Add(1)
	c.mu.Unlock()
	select {
	case c.sendQ <- msg:
		return c.queued()
	default:
	}
	expired, stop := c.sendTimer(timeout)
	defer stop()
	select {
	case c.sendQ <- msg:
		return c.queued()
	case <-c.closed:
		c.pending.Done()
		return c.errOrClosed()
	case <-expired:
		c.pending.Done()
		return ErrSendTimeout
	case <-cancel:
		c.pending.Done()
		return ErrSendTimeout
	}
}

// queued finishes a send whose message entered the transmit queue. The
// pump drains its queue once, as it exits on close. A send that raced
// the close can land after that drain; it releases what it left behind
// itself, or Close's flush would wait on it.
func (c *Conn) queued() error {
	select {
	case <-c.closed:
		c.drainSendQ()
	default:
	}
	return nil
}

// sendTimer arms a send's deadline once the send has to wait for queue
// room: expired closes after timeout of modeled time, and stop disarms
// it. A timeout <= 0 arms nothing and never expires; one too short to
// survive the latency scale has expired already.
func (c *Conn) sendTimer(timeout time.Duration) (expired <-chan struct{}, stop func() bool) {
	if timeout <= 0 {
		return nil, func() bool { return false }
	}
	ch := make(chan struct{})
	wait := c.net.env.Scale().ToReal(timeout)
	if wait <= 0 {
		close(ch)
		return ch, func() bool { return false }
	}
	return ch, c.net.env.Clock().AfterFunc(wait, func() { close(ch) })
}

// Recv returns the next message in order, blocking until one arrives,
// the connection dies, or the context is done. Messages already
// delivered before a link loss remain readable.
func (c *Conn) Recv(ctx context.Context) ([]byte, error) {
	c.ops.Add(1)
	defer c.ops.Add(-1)
	if c.des != nil {
		return c.desRecv(ctx)
	}
	select {
	case msg := <-c.recvQ:
		return msg, nil
	default:
	}
	select {
	case msg := <-c.recvQ:
		return msg, nil
	case <-c.closed:
		// Drain anything that raced in before closure.
		select {
		case msg := <-c.recvQ:
			return msg, nil
		default:
		}
		return nil, c.errOrClosed()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Err returns the terminal error after the connection has died, or nil
// while it is healthy.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Alive reports whether the connection is still usable.
func (c *Conn) Alive() bool {
	select {
	case <-c.closed:
		return false
	default:
		return true
	}
}

// closeFlushTimeout bounds how long Close waits for in-flight messages
// to drain when the peer is not reading.
const closeFlushTimeout = 5 * time.Second

// Close flushes messages already accepted by Send (so a server may
// respond and close immediately, like shutdown(2) on TCP), then shuts
// down both ends. Messages the peer has not yet read remain readable on
// its side. Close also drops this end's user hold on the pair; using
// the end afterwards is a contract violation. Close and Abort win the
// release latch before touching the pair: a duplicate release from a
// racing goroutine returns without reading state a recycled
// incarnation may be rewriting.
func (c *Conn) Close() error {
	if !c.released.CompareAndSwap(false, true) {
		return nil
	}
	c.mu.Lock()
	c.closing = true
	c.mu.Unlock()
	c.waitFlush(closeFlushTimeout)
	c.fail(ErrConnClosed)
	c.peer.fail(ErrConnClosed)
	c.unref()
	return nil
}

// Abort tears both ends down immediately, discarding in-flight
// messages, and drops this end's user hold on the pair. Duplicate
// releases are no-ops (see Close).
func (c *Conn) Abort() {
	if !c.released.CompareAndSwap(false, true) {
		return
	}
	c.failBoth(ErrConnClosed)
	c.unref()
}

// waitFlush waits for accepted sends to drain, bounded by d. The
// waiting goroutine keeps a pair hold even past the timeout: it stays
// parked on this incarnation's WaitGroup, which must not be recycled
// under it.
func (c *Conn) waitFlush(d time.Duration) {
	c.pair.ref()
	done := make(chan struct{})
	go func() {
		c.pending.Wait()
		close(done)
		c.unref()
	}()
	//phvet:ignore walltime Close's flush bound is a real-time safety valve: it must fire even when a manual vtime clock is paused, or a peer that stops reading would hang Close forever.
	bound := time.NewTimer(d)
	defer bound.Stop() // under go 1.22 timer rules an unstopped timer lives until it fires
	select {
	case <-done:
	case <-bound.C:
	}
}

func (c *Conn) errOrClosed() error {
	if err := c.Err(); err != nil {
		return err
	}
	return ErrConnClosed
}

// fail terminates this end with the given error (first caller wins;
// later calls are no-ops). The pair's first fail ends the connection,
// and only it counts a link failure: the pump, a delivery event and the
// link sweep may each notice one severed link, and a user close that
// came first leaves nothing to count.
func (c *Conn) fail(err error) {
	if !c.failed.CompareAndSwap(false, true) {
		return
	}
	if c.pair.ended.CompareAndSwap(false, true) && errors.Is(err, ErrLinkLost) {
		c.net.counters.linkFailures.Add(1)
	}
	c.mu.Lock()
	c.err = err
	c.mu.Unlock()
	close(c.closed)
	c.net.dropConn(c)
	if c.des != nil {
		c.desNotifyWaiter()
	}
}

// failBoth terminates both ends.
func (c *Conn) failBoth(err error) {
	c.fail(err)
	c.peer.fail(err)
}

// pump moves messages from this end's transmit queue to the peer's
// receive queue, one at a time, charging the PHY transfer time; the
// serial processing is what models the link's limited bandwidth. The
// goroutine holds one pair reference for its lifetime.
func (c *Conn) pump() {
	defer c.unref()
	defer c.drainSendQ()
	phy := c.net.env.PHY(c.tech)
	var msgSeq uint64
	for {
		select {
		case <-c.closed:
			return
		case msg := <-c.sendQ:
			msgSeq++
			// Consult the fault plan once per message. With no plan (or
			// a zero-rate one) the fate is the zero value and the path
			// below is byte-identical to the fault-free one: a single
			// transfer charge, no extra sleeps, no mutation.
			plan := c.net.faultPlan()
			transfer := phy.TransferTime(len(msg))
			var fate faults.Fate
			if plan != nil {
				elapsed := c.net.env.Elapsed()
				transfer = plan.ScaleTransfer(transfer, elapsed)
				fate = plan.MessageFate(c.local.dev, c.remote.dev, c.connSeq, msgSeq, elapsed)
				if plan.AffectsEndpoints() {
					// Endpoint fates: a slow device charges a multiple of the
					// PHY time for everything it sends; a stalled session
					// withholds this end's messages — the link stays up and
					// the other direction keeps flowing, which is the gray
					// failure shape (connection accepted, replies withheld).
					transfer = time.Duration(float64(transfer) * plan.ServeScale(c.local.dev, elapsed))
					if d := plan.StallDelay(c.local.dev, c.remote.dev, c.connSeq, msgSeq, elapsed); d > 0 {
						select {
						case <-c.net.env.Clock().After(c.net.env.Scale().ToReal(d)):
						case <-c.closed:
							c.pending.Done()
							return
						}
					}
				}
			}
			// Hold the sender's radio for the transfer (and for every
			// retransmission): connections sharing one device radio
			// contend for airtime.
			tx := &c.local.tx[c.tech]
			for charge := 0; charge <= fate.Retransmits; charge++ {
				tx.Lock()
				c.net.sleepModeled(transfer)
				tx.Unlock()
			}
			if fate.Retransmits > 0 {
				c.net.counters.messagesRetransmitted.Add(uint64(fate.Retransmits))
			}
			// A link loss fails the conn before releasing the message, so
			// a Close waiting on the flush finds the loss already counted.
			if fate.Reset {
				c.failBoth(fmt.Errorf("%w: %s -> %s over %v (retransmission budget exhausted)", ErrLinkLost, c.local.dev, c.remote.dev, c.tech))
				c.pending.Done()
				return
			}
			if fate.Delay > 0 {
				c.net.sleepModeled(fate.Delay)
			}
			if fate.Corrupt {
				msg = plan.Corrupt(msg, c.local.dev, c.remote.dev, c.connSeq, msgSeq)
				c.net.counters.messagesCorrupted.Add(1)
			}
			if !c.net.linkUp(c.local, c.remote, c.tech) {
				c.failBoth(fmt.Errorf("%w: %s -> %s over %v", ErrLinkLost, c.local.dev, c.remote.dev, c.tech))
				c.pending.Done()
				return
			}
			c.net.counters.deliver(len(msg))
			select {
			case c.peer.recvQ <- msg:
				c.pending.Done()
			case <-c.closed:
				c.net.counters.undeliver(len(msg))
				c.pending.Done()
				return
			}
		}
	}
}

// drainSendQ releases accounting for messages abandoned when the pump
// exits, so Close never waits on undeliverable traffic. It first waits
// for the close: a pump whose failBoth lost the race to another failing
// goroutine exits before that goroutine has closed the conn, and sends
// still land in the queue until it does.
func (c *Conn) drainSendQ() {
	<-c.closed
	for {
		select {
		case <-c.sendQ:
			c.pending.Done()
		default:
			return
		}
	}
}
