package netsim

import (
	"fmt"
	"time"

	"repro/internal/des"
)

// linkCheckInterval is the modeled interval at which the network's
// shared link sweep verifies the radio link under every established
// connection still holds, so idle connections notice separation too.
const linkCheckInterval = time.Second

// sweepHome is the scheduling home of the link-sweep event chain.
const sweepHome uint64 = 0x736e732d7377656570 >> 8 // "ns-sweep"

// sweepEpoch names the state a full sweep verified: the radio world
// generation and the network's partition generation.
type sweepEpoch struct{ world, part uint64 }

// trackConn registers one end of a new pair for the link sweep and
// Close teardown, starting the sweeper if it is not already running.
func (n *Network) trackConn(c *Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.conns[c] = true
	n.unswept[c] = true
	if n.sweeping || n.closed {
		return
	}
	n.sweeping = true
	if n.sched != nil {
		n.sched.At(n.sweepInterval(), sweepHome, n.desSweepEvent)
		return
	}
	n.sweepGen++
	n.armSweepLocked()
}

// dropConn removes a dead conn from the registry; no-op for the
// untracked end of a pair. When the last conn goes, the goroutine
// engine's sweep callback is stopped instead of idling on its timer.
func (n *Network) dropConn(c *Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	delete(n.unswept, c)
	if len(n.conns) == 0 {
		n.stopSweepLocked()
	}
	n.mu.Unlock()
}

// sweepInterval is the real-scaled link-check period both sweepers
// wait between steps.
func (n *Network) sweepInterval() time.Duration {
	interval := n.env.Scale().ToReal(linkCheckInterval)
	if interval <= 0 {
		interval = time.Millisecond
	}
	return interval
}

// armSweepLocked arms the goroutine engine's link sweeper: a callback on
// the environment's clock, one per Network whatever its conn count,
// that runs sweepStep and re-arms itself as the event engine's sweeper
// re-arms with Ctx.At. Callers hold n.mu.
func (n *Network) armSweepLocked() {
	gen := n.sweepGen
	n.sweepStop = n.env.Clock().AfterFunc(n.sweepInterval(), func() { n.sweepTick(gen) })
}

// sweepTick is one step of the goroutine engine's sweeper. A tick that
// a stop overtook (gen is stale) does nothing, and one whose step
// retired the sweeper does not re-arm.
func (n *Network) sweepTick(gen uint64) {
	n.mu.Lock()
	stale := gen != n.sweepGen
	n.mu.Unlock()
	if stale || !n.sweepStep((*Conn).failBoth) {
		return
	}
	n.mu.Lock()
	if gen == n.sweepGen && n.sweeping {
		n.armSweepLocked()
	}
	n.mu.Unlock()
}

// stopSweepLocked stops the goroutine engine's armed sweep callback, so
// an idle or closed network holds no timer. The event engine's sweep
// chain retires at its next step instead. Callers hold n.mu.
func (n *Network) stopSweepLocked() {
	if n.sweepStop == nil {
		return
	}
	n.sweepStop()
	n.sweepStop = nil
	n.sweepGen++
	n.sweeping = false
}

// desSweepEvent is the event engine's link sweeper: the same sweepStep
// from an event that re-arms itself every linkCheckInterval, tearing
// dead conns down as children of the sweep event.
func (n *Network) desSweepEvent(ctx *des.Ctx) {
	teardown := func(c *Conn, err error) { c.desTeardown(ctx, err) }
	if n.sweepStep(teardown) {
		ctx.At(n.sweepInterval(), sweepHome, n.desSweepEvent)
	}
}

// sweepStep is the one link-sweep body both engines run: it fails,
// through teardown, every tracked conn whose radio link is down, and
// reports false, retiring the sweeper, once the network is closed or
// holds no conns.
//
// The sweep is change-driven. Between static devices linkUp is a pure
// function of the world generation, the partition set and the fault
// plan, and every tracked conn has been checked at the current epoch,
// by the last full sweep or by a step since. So while no device moves,
// the plan cannot sever links and the epoch is the last full sweep's,
// only the conns tracked since the last step need a check; otherwise
// every conn is checked. The epoch is read before any check, so a
// change that lands mid-sweep forces a full sweep next time.
func (n *Network) sweepStep(teardown func(c *Conn, err error)) bool {
	world, moving := n.env.Generation()
	n.mu.Lock()
	if n.closed || len(n.conns) == 0 {
		n.sweeping = false
		n.mu.Unlock()
		return false
	}
	check := n.unswept
	epoch := sweepEpoch{world: world, part: n.partGen}
	if moving > 0 || n.faultPlan().SeversLinks() || epoch != n.sweptAt {
		check, n.sweptAt = n.conns, epoch
	}
	live := make([]*Conn, 0, len(check))
	for c := range check {
		// Hold the pair across the unlocked check below: a tracked conn
		// always has its user holds outstanding, so the ref can never
		// resurrect a recycled pair.
		c.pair.ref()
		//phvet:ignore mapiter check order is unobservable (linkUp is pure, its fault counters commute); the dead conns are sorted before teardown
		live = append(live, c)
	}
	clear(n.unswept)
	n.sweepChecks += uint64(len(live))
	n.mu.Unlock()
	// Outside the lock: linkUp re-enters n.mu and failing a conn
	// re-enters the network to deregister itself.
	var dead []*Conn
	for _, c := range live {
		if n.linkUp(c.local, c.remote, c.tech) {
			c.unref()
			continue
		}
		dead = append(dead, c)
	}
	// Failure order is observable (error delivery, teardown events), so
	// the dead conns fail in sortConnsDet order.
	sortConnsDet(dead)
	for _, c := range dead {
		teardown(c, fmt.Errorf("%w: %s <-> %s over %v", ErrLinkLost, c.local.dev, c.remote.dev, c.tech))
		c.unref()
	}
	return true
}
