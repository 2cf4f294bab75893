// Package netsim simulates the transport layer PeerHood's plugins use:
// reliable ordered message streams between devices in the radio
// environment, with per-technology latency and bandwidth, connection
// setup cost, link breakage when devices leave radio range, broadcast
// delivery for WLAN-style service discovery, and failure injection
// (partitions, broadcast loss) for robustness tests.
//
// A Conn is the moral equivalent of the L2CAP channel the thesis's
// BTPlugin offers ("ordered and reliable data delivery", §4.2.3): the
// network never reorders or corrupts messages, but it does sever the
// connection when the radio link dies.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/ids"
	"repro/internal/radio"
)

// Sentinel errors.
var (
	ErrUnreachable   = errors.New("netsim: peer unreachable")
	ErrNoListener    = errors.New("netsim: no listener on port")
	ErrPortInUse     = errors.New("netsim: port already in use")
	ErrConnClosed    = errors.New("netsim: connection closed")
	ErrLinkLost      = errors.New("netsim: radio link lost")
	ErrNetworkClosed = errors.New("netsim: network closed")
	ErrSendTimeout   = errors.New("netsim: send deadline exceeded")
)

// sendQueueLen bounds in-flight messages per direction; Send blocks
// when the queue is full, which models transmit-buffer backpressure.
const sendQueueLen = 256

// Network binds the transport to a radio environment.
type Network struct {
	env *radio.Environment

	mu          sync.Mutex
	listeners   map[portKey]*Listener
	subscribers map[portKey][]*BroadcastSub
	partitioned map[devPair]bool
	lossRate    float64
	rng         *rand.Rand
	closed      bool
	conns       map[*Conn]bool // one end per live pair, for sweep + Close teardown
	sweeping    bool           // a link sweeper (clock callback or event chain) is running

	// The change-driven link sweep's state (sweep.go): the conns tracked
	// since the last sweep step, the epoch of the last full sweep, the
	// partition generation Partition and Heal bump, and how many links
	// sweeps have checked (a cost figure for tests, kept out of
	// Counters so the engines' Counters stay comparable).
	unswept     map[*Conn]bool
	sweptAt     sweepEpoch
	partGen     uint64
	sweepChecks uint64

	// sweepStop stops the goroutine engine's armed sweep callback (nil
	// while none is armed); sweepGen retires a callback that was already
	// running when it was stopped, so it never re-arms.
	sweepStop func() bool
	sweepGen  uint64

	counters netCounters

	// plan is the installed fault-injection plan (nil = clean links).
	// Loaded lock-free on every message so the disabled path costs one
	// atomic read.
	plan atomic.Pointer[faults.Plan]

	// pairSeq numbers connections per directed (dialer, listener) pair;
	// the sequence plus a per-connection message index keys every
	// deterministic fault draw. Guarded by mu.
	pairSeq map[dirPair]uint64

	// nodes holds the transport's one record per device, made on first
	// use and never dropped (nodeMu guards the map, not the records).
	nodeMu sync.Mutex
	nodes  map[ids.DeviceID]*node

	// sched selects the engine: nil runs the goroutine engine (conn
	// pumps + a link-sweep clock callback); non-nil runs the discrete-event
	// engine (engine_des.go), where sends schedule delivery events and
	// the sweep is a self-rescheduling event. Set once at construction,
	// never mutated.
	sched *des.Scheduler

	// pairPool recycles connPair allocations (conn.go): at scale the
	// dial/close churn of discovery rounds dominated the allocation
	// profile, and a released pair keeps its queues and semaphores, so
	// it is reset rather than reallocated.
	pairPool sync.Pool
}

// techSlots sizes the per-technology arrays of a node; a
// radio.Technology value indexes them directly.
const techSlots = int(radio.GPRS) + 1

// node is the transport's record of one device, resolved when a dial
// starts and held by both conn ends, so per-message work reads it
// through a pointer instead of hashing the device ID: the radio handle
// the link checks use, the device's scheduling home, and its radios'
// airtime.
type node struct {
	dev   ids.DeviceID
	radio radio.Handle
	home  uint64

	// tx serializes the goroutine engine's transmissions per
	// technology: a radio is a shared medium, so two connections sending
	// from the same device over the same technology contend for airtime.
	tx [techSlots]sync.Mutex

	// freeAt is the event engine's stand-in for tx: per technology,
	// the virtual instant (scheduler ns) the radio frees. Guarded by
	// airMu.
	airMu  sync.Mutex
	freeAt [techSlots]int64
}

// node returns dev's transport record, making it on first use.
func (n *Network) node(dev ids.DeviceID) *node {
	n.nodeMu.Lock()
	defer n.nodeMu.Unlock()
	d := n.nodes[dev]
	if d == nil {
		d = &node{dev: dev, radio: n.env.Resolve(dev), home: homeOf(dev)}
		n.nodes[dev] = d
	}
	return d
}

type portKey struct {
	dev  ids.DeviceID
	port string
}

type devPair struct {
	a, b ids.DeviceID
}

// dirPair is a direction-preserving device pair: connection sequence
// numbers are per dialing direction so that two peers dialing each
// other concurrently cannot perturb each other's fault draws.
type dirPair struct {
	from, to ids.DeviceID
}

func normPair(a, b ids.DeviceID) devPair {
	if a > b {
		a, b = b, a
	}
	return devPair{a: a, b: b}
}

// New returns a network over the given environment, on the goroutine
// engine.
func New(env *radio.Environment, seed int64) *Network {
	return &Network{
		env:         env,
		listeners:   make(map[portKey]*Listener),
		subscribers: make(map[portKey][]*BroadcastSub),
		partitioned: make(map[devPair]bool),
		rng:         rand.New(rand.NewSource(seed)),
		nodes:       make(map[ids.DeviceID]*node),
		conns:       make(map[*Conn]bool),
		unswept:     make(map[*Conn]bool),
		pairSeq:     make(map[dirPair]uint64),
	}
}

// NewDES returns a network driven by the given discrete-event
// scheduler instead of per-connection goroutines: same API, same
// semantics, but message transfers, fault fates and link sweeps are
// scheduled events, so virtual time advances by popping the event
// queue rather than sleeping. The environment must ride the same
// scheduler's clock (radio.WithClock(sched.Clock())), or transport
// events and radio time would disagree.
func NewDES(env *radio.Environment, seed int64, sched *des.Scheduler) *Network {
	n := New(env, seed)
	n.sched = sched
	return n
}

// Scheduler returns the discrete-event scheduler driving this network,
// or nil on the goroutine engine.
func (n *Network) Scheduler() *des.Scheduler { return n.sched }

// SetFaults installs (or, with nil, removes) a fault-injection plan on
// the transport: message fates, bandwidth throttling and link flaps /
// scheduled partitions all come from the plan's deterministic draws.
// Radio-side inquiry faults are installed separately with
// Environment.SetInquiryFaults, since the same plan serves both hooks.
func (n *Network) SetFaults(p *faults.Plan) {
	if p == nil {
		n.plan.Store(nil)
		return
	}
	n.plan.Store(p)
}

// faultPlan returns the installed plan, or nil.
func (n *Network) faultPlan() *faults.Plan { return n.plan.Load() }

// sortConnsDet orders connections deterministically — by dialer pair,
// then connection sequence — so that shutdown and sweep failures hit
// conns in a stable order instead of whatever order the conns map
// yields this run. Failure order is observable (error delivery,
// deregistration events), so it must replay.
func sortConnsDet(conns []*Conn) {
	sort.Slice(conns, func(i, j int) bool {
		a, b := conns[i], conns[j]
		if a.local.dev != b.local.dev {
			return a.local.dev < b.local.dev
		}
		if a.remote.dev != b.remote.dev {
			return a.remote.dev < b.remote.dev
		}
		return a.connSeq < b.connSeq
	})
}

// nextConnSeq numbers a new connection on its directed dialer pair.
func (n *Network) nextConnSeq(from, to ids.DeviceID) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := dirPair{from: from, to: to}
	n.pairSeq[key]++
	return n.pairSeq[key]
}

// ConnSeq reports how many connections have been dialed from one
// device to another so far; the next dial on the pair gets ConnSeq+1.
// Session-keyed fault draws (faults.Plan.SessionStalled) are pure in
// this number, so tests use it to pick seeds with known session fates.
func (n *Network) ConnSeq(from, to ids.DeviceID) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pairSeq[dirPair{from: from, to: to}]
}

// Environment returns the underlying radio environment.
func (n *Network) Environment() *radio.Environment { return n.env }

// Close shuts the network down; existing connections break and new
// operations fail. Breaking the connections (not just the listeners)
// also stops their pump goroutines and the shared link sweeper, so a
// closed network leaves nothing running.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	for _, l := range n.listeners {
		l.closeLocked()
	}
	n.listeners = make(map[portKey]*Listener)
	live := make([]*Conn, 0, len(n.conns))
	for c := range n.conns {
		// Hold each pair across the unlocked teardown below; a tracked
		// conn still has its user holds, so the ref is always live.
		c.pair.ref()
		live = append(live, c)
	}
	sortConnsDet(live)
	n.conns = make(map[*Conn]bool)
	clear(n.unswept)
	n.stopSweepLocked()
	n.mu.Unlock()
	// Outside the lock: failing a conn re-enters the network to
	// deregister itself.
	for _, c := range live {
		c.failBoth(ErrNetworkClosed)
		c.unref()
	}
}

// Partition severs all traffic between two devices regardless of radio
// range (failure injection).
func (n *Network) Partition(a, b ids.DeviceID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[normPair(a, b)] = true
	n.partGen++
}

// Heal removes a partition.
func (n *Network) Heal(a, b ids.DeviceID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned, normPair(a, b))
	n.partGen++
}

// SetBroadcastLoss sets the probability in [0, 1] that any single
// broadcast delivery is dropped.
func (n *Network) SetBroadcastLoss(rate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	n.lossRate = rate
}

// linkUp reports whether traffic may flow between two devices now.
func (n *Network) linkUp(a, b *node, tech radio.Technology) bool {
	n.mu.Lock()
	part := n.partitioned[normPair(a.dev, b.dev)]
	closed := n.closed
	n.mu.Unlock()
	if closed || part {
		return false
	}
	if plan := n.faultPlan(); plan.SeversLinks() && plan.LinkDown(a.dev, b.dev, n.env.Elapsed()) {
		return false
	}
	return a.radio.ReachableAt(b.radio, tech, n.env.Elapsed())
}

// sleepModeled sleeps a modeled duration on the environment's clock,
// shrunk by its latency scale.
func (n *Network) sleepModeled(d time.Duration) {
	n.env.Clock().Sleep(n.env.Scale().ToReal(d))
}

// Listen opens a named port on a device. The returned listener accepts
// connections dialed to (dev, port) over any technology.
func (n *Network) Listen(dev ids.DeviceID, port string) (*Listener, error) {
	if !n.env.Has(dev) {
		return nil, fmt.Errorf("netsim: listen: %w: %q", radio.ErrUnknownDevice, dev)
	}
	if port == "" {
		return nil, errors.New("netsim: listen: empty port")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrNetworkClosed
	}
	key := portKey{dev: dev, port: port}
	if _, ok := n.listeners[key]; ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrPortInUse, port, dev)
	}
	l := &Listener{
		net:      n,
		key:      key,
		incoming: make(chan *Conn, 16),
		done:     make(chan struct{}),
	}
	n.listeners[key] = l
	return l, nil
}

// Dial connects from one device to a port on another over the given
// technology. It charges the PHY's connection-setup time and fails if
// the peer is unreachable or nothing is listening.
func (n *Network) Dial(ctx context.Context, from, to ids.DeviceID, tech radio.Technology, port string) (*Conn, error) {
	n.counters.dialsAttempted.Add(1)
	if !tech.Valid() {
		return nil, fmt.Errorf("netsim: dial: invalid technology %v", tech)
	}
	a, b := n.node(from), n.node(to)
	if !n.linkUp(a, b, tech) {
		return nil, fmt.Errorf("%w: %s -> %s over %v", ErrUnreachable, from, to, tech)
	}
	phy := n.env.PHY(tech)
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-n.env.Clock().After(n.env.Scale().ToReal(phy.ConnectSetup)):
	}
	// Re-check after setup: the peer may have walked away while paging.
	if !n.linkUp(a, b, tech) {
		return nil, fmt.Errorf("%w: %s -> %s over %v (lost during setup)", ErrUnreachable, from, to, tech)
	}
	l, err := n.listener(to, port)
	if err != nil {
		return nil, err
	}
	local, remote := newConnPair(n, a, b, tech, port)
	if n.handoff(nil, l, remote) {
		return local, nil
	}
	select {
	case l.incoming <- remote:
		n.counters.connsEstablished.Add(1)
	case <-l.done:
		_ = local.Close()
		remote.releaseUser() // never handed to an acceptor
		return nil, fmt.Errorf("%w: %s on %s", ErrNoListener, port, to)
	case <-ctx.Done():
		_ = local.Close()
		remote.releaseUser() // never handed to an acceptor
		return nil, ctx.Err()
	}
	return local, nil
}

// Listener accepts inbound connections on a device port.
type Listener struct {
	net      *Network
	key      portKey
	incoming chan *Conn
	done     chan struct{}
	once     sync.Once

	// acceptFn is the event-mode accept handler (AcceptEvent,
	// events.go); nil means inbound event dials use the Accept queue.
	acceptMu sync.Mutex
	acceptFn func(ctx *des.Ctx, c *Conn)
}

// Accept blocks until a connection arrives, the listener closes, or the
// context is done.
func (l *Listener) Accept(ctx context.Context) (*Conn, error) {
	select {
	case c := <-l.incoming:
		return c, nil
	case <-l.done:
		return nil, ErrConnClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close stops accepting; established connections are unaffected.
func (l *Listener) Close() {
	l.net.mu.Lock()
	defer l.net.mu.Unlock()
	if l.net.listeners[l.key] == l {
		delete(l.net.listeners, l.key)
	}
	l.closeLocked()
}

func (l *Listener) closeLocked() {
	l.once.Do(func() { close(l.done) })
}
