// Package dtn is the store-carry-forward delivery plane: multi-hop
// addressed messages that survive disconnection, churn and partitions.
//
// The paper's proximity SNS only ever talks single-hop within radio
// range, so sparse mobility (a bus line at night, a campus between
// classes) simply loses messages. Here a device accepts *custody* of an
// addressed bundle, buffers it across disconnection under an explicit
// TTL and a bounded buffer-occupancy policy, and forwards it on contact
// under one of two relay strategies: SocialDTN-style epidemic
// spray-and-wait with per-message copy budgets, or a GROUPS-NET-style
// social rule that prefers relays sharing interest-group encounters
// with the destination (fed by internal/core group views).
//
// Like internal/gossip, a Node is clockless and externally driven:
// Round(ctx) executes one contact round and nothing runs on a timer, so
// the same node runs identically on the goroutine and DES transport
// engines (netsim sequences its handshakes on either) and replays
// byte-for-byte under seeded faults (TraceDigest).
package dtn

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/frame"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/radio"
)

// Port is the listener port every DTN node binds, next to the
// daemon/community/gossip ports in the device's port namespace.
const Port = "dtn"

// Errors reported by the custody API.
var (
	// ErrDown reports an operation on a crashed (down) node.
	ErrDown = errors.New("dtn: node is down")
	// ErrPayload reports a payload over the wire cap.
	ErrPayload = errors.New("dtn: payload too large")
)

// Config tunes the delivery plane. The zero value is normalized to the
// defaults below.
type Config struct {
	// Strategy is the relay decision rule (default Epidemic).
	Strategy Strategy
	// Eviction is the buffer-occupancy policy (default EvictOldest).
	Eviction EvictionPolicy
	// CopyBudget is a fresh bundle's spray budget L: the total number
	// of custodied copies the source allows in the network.
	CopyBudget int
	// BufferCap bounds the relay buffer in bundles. The source outbox
	// (locally originated, not yet acked) is not counted: a source
	// retains its own messages until a delivered-ack or TTL expiry.
	BufferCap int
	// TTLRounds is the default lifetime of a bundle in custody rounds;
	// every custodian decrements it once per Round and never forwards
	// an expired bundle.
	TTLRounds int
	// Fanout caps non-destination contacts per round. Neighbors that
	// are destinations of held bundles are always contacted.
	Fanout int
	// VaccineCap bounds the delivered-ids sample piggybacked on each
	// contact (the anti-packets that purge dead copies).
	VaccineCap int
}

func (c Config) withDefaults() Config {
	if c.CopyBudget <= 0 {
		c.CopyBudget = 8
	}
	if c.BufferCap <= 0 {
		c.BufferCap = 64
	}
	if c.TTLRounds <= 0 {
		c.TTLRounds = 64
	}
	if c.TTLRounds > 1<<20 {
		c.TTLRounds = 1 << 20
	}
	if c.Fanout <= 0 {
		c.Fanout = 8
	}
	if c.VaccineCap <= 0 {
		c.VaccineCap = 256
	}
	if c.VaccineCap > maxWireIDs {
		c.VaccineCap = maxWireIDs
	}
	return c
}

// Stats counts one node's custody activity. All counters are
// monotonically increasing except Buffered, a gauge sampled at snapshot
// time. The custody identity
//
//	Accepted == Delivered + Expired + Evicted + Transferred + Purged +
//	            CrashDropped + Buffered
//
// holds for every node at every quiescent point (and therefore for
// fleet sums via Add); the property suite asserts it on both engines.
type Stats struct {
	Rounds       uint64 // Round calls
	Originated   uint64 // locally submitted messages
	Accepted     uint64 // custody acceptances (originated + received + consumed)
	Delivered    uint64 // bundles consumed as the destination
	Expired      uint64 // bundles dropped by TTL
	Evicted      uint64 // bundles dropped by buffer policy
	Transferred  uint64 // custody handed over (last-copy or direct delivery)
	Purged       uint64 // bundles dropped by a delivered-ack vaccine
	CrashDropped uint64 // relay bundles lost to a crash-restart
	Rejected     uint64 // custody refused: buffer full, incoming was the victim
	Duplicates   uint64 // bundles offered or shipped that were already held/delivered
	Buffered     uint64 // gauge: bundles currently under custody (outbox + relay buffer)

	OffersSent     uint64 // contacts initiated (OFFER frames sent)
	OffersServed   uint64 // contacts served (OFFER frames handled)
	CopiesSent     uint64 // bundle replicas shipped on the wire
	CopiesReceived uint64 // bundle replicas stored into the relay buffer
	ExchangeErrors uint64 // contacts that failed (dial/send/recv)
	FramesIn       uint64 // well-formed frames served
	FramesRejected uint64 // frames that failed decode
}

// Add accumulates other into s; Buffered sums as a fleet-wide gauge.
func (s *Stats) Add(other Stats) {
	s.Rounds += other.Rounds
	s.Originated += other.Originated
	s.Accepted += other.Accepted
	s.Delivered += other.Delivered
	s.Expired += other.Expired
	s.Evicted += other.Evicted
	s.Transferred += other.Transferred
	s.Purged += other.Purged
	s.CrashDropped += other.CrashDropped
	s.Rejected += other.Rejected
	s.Duplicates += other.Duplicates
	s.Buffered += other.Buffered
	s.OffersSent += other.OffersSent
	s.OffersServed += other.OffersServed
	s.CopiesSent += other.CopiesSent
	s.CopiesReceived += other.CopiesReceived
	s.ExchangeErrors += other.ExchangeErrors
	s.FramesIn += other.FramesIn
	s.FramesRejected += other.FramesRejected
}

// CustodyBalanced reports whether the custody identity holds.
func (s Stats) CustodyBalanced() bool {
	return s.Accepted == s.Delivered+s.Expired+s.Evicted+s.Transferred+
		s.Purged+s.CrashDropped+s.Buffered
}

// Message is one delivered payload as the destination application sees
// it: the bundle identity, the source device, the payload, and the
// destination's local round at consumption time.
type Message struct {
	ID      string
	Src     ids.DeviceID
	Payload []byte
	Round   uint64
}

// Params wires a Node into a device.
type Params struct {
	Device ids.DeviceID
	// Neighbors supplies the current radio neighborhood — contacts only
	// ever happen with devices actually in range.
	Neighbors func() []ids.DeviceID
	// Groups supplies the device's current interest-group view (may be
	// nil; the social strategy then never relays beyond direct
	// delivery). The node folds every snapshot into its encounter
	// memory, which is what social utility is computed from.
	Groups func() []core.Group
	Net    *netsim.Network
	// Tech defaults to Bluetooth, the thesis's proximity technology.
	Tech radio.Technology
	Seed int64
	Config
}

// Node is one device's store-carry-forward engine. It is driven
// externally: Round(ctx), or RoundEvent from inside an event, executes
// one contact round; Start serves the passive side of contacts.
type Node struct {
	dev       ids.DeviceID
	neighbors func() []ids.DeviceID
	groups    func() []core.Group
	net       *netsim.Network
	tech      radio.Technology
	cfg       Config

	mu             sync.Mutex
	outbox         map[string]*bundleState // locally originated custody
	buffer         map[string]*bundleState // relayed custody (volatile)
	met            map[ids.DeviceID]map[string]struct{}
	delivered      map[string]struct{}
	deliveredOrder []string
	inbox          []Message
	consumed       map[string]struct{}
	seq            uint64
	enqSeq         uint64
	round          uint64
	down           bool
	trace          uint64
	stats          Stats

	// vaccine is the delivered-ids sample every OFFER and WANT carries,
	// kept encoded (a frame id list of the last VaccineCap entries of
	// deliveredOrder) and rebuilt only once the log has grown past the
	// vaccineLen entries it was built from.
	vaccine    []byte
	vaccineLen int

	svc     *netsim.Service
	started bool
}

// NewNode builds a node; call Start to begin serving contacts.
func NewNode(p Params) (*Node, error) {
	if p.Device == "" {
		return nil, errors.New("dtn: missing device")
	}
	if p.Neighbors == nil || p.Net == nil {
		return nil, errors.New("dtn: missing Neighbors or Net")
	}
	if p.Tech == radio.TechNone {
		p.Tech = radio.Bluetooth
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(p.Device))
	n := &Node{
		dev:       p.Device,
		neighbors: p.Neighbors,
		groups:    p.Groups,
		net:       p.Net,
		tech:      p.Tech,
		cfg:       p.Config.withDefaults(),
		outbox:    make(map[string]*bundleState),
		buffer:    make(map[string]*bundleState),
		met:       make(map[ids.DeviceID]map[string]struct{}),
		delivered: make(map[string]struct{}),
		consumed:  make(map[string]struct{}),
		trace:     mix64(uint64(p.Seed) ^ h.Sum64()),
	}
	return n, nil
}

// mix64 is the splitmix64 finalizer; it seeds the trace digest so
// different seeds produce different (but internally replayable) traces.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Start binds the DTN port and serves inbound contacts until Stop.
func (n *Node) Start() error {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return errors.New("dtn: already started")
	}
	n.started = true
	n.mu.Unlock()
	lis, err := n.net.Listen(n.dev, Port)
	if err != nil {
		return err
	}
	n.svc = lis.Serve(n.serveOffer)
	return nil
}

// Stop ends the service and waits for every serving goroutine (the
// leak checker holds us to that).
func (n *Node) Stop() {
	if n.svc != nil {
		n.svc.Stop()
	}
}

// --- trace ---

// noteLocked folds one custody event into the replay digest. Every
// state transition notes itself, so two runs with the same seed must
// make byte-for-byte identical custody decisions to agree. Callers
// hold n.mu.
func (n *Node) noteLocked(action, id string, peer ids.DeviceID, a, b uint64) {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], n.trace)
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(action))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(id))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(peer))
	_, _ = h.Write([]byte{0})
	binary.LittleEndian.PutUint64(buf[:], a)
	_, _ = h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], b)
	_, _ = h.Write(buf[:])
	n.trace = h.Sum64()
}

// TraceDigest returns the accumulated custody-event digest. Under the
// sequential chaos driver it is a byte-for-byte replay witness: same
// seed, same digest.
func (n *Node) TraceDigest() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.trace
}

// --- custody state helpers (callers hold n.mu) ---

func (n *Node) heldLocked(id string) bool {
	if _, ok := n.outbox[id]; ok {
		return true
	}
	_, ok := n.buffer[id]
	return ok
}

func (n *Node) lookupLocked(id string) *bundleState {
	if bs, ok := n.outbox[id]; ok {
		return bs
	}
	return n.buffer[id]
}

func (n *Node) removeLocked(id string) {
	delete(n.outbox, id)
	delete(n.buffer, id)
}

func (n *Node) isDeliveredLocked(id string) bool {
	_, ok := n.delivered[id]
	return ok
}

func (n *Node) recordDeliveredLocked(id string) {
	if _, ok := n.delivered[id]; ok {
		return
	}
	n.delivered[id] = struct{}{}
	n.deliveredOrder = append(n.deliveredOrder, id)
}

// vaccineLocked returns the encoded sample of the most recently learned
// delivered ids for piggybacking on a contact. The delivered log only
// grows, so its length tells whether the cached encoding is current.
func (n *Node) vaccineLocked() []byte {
	if len(n.vaccine) == 0 || n.vaccineLen != len(n.deliveredOrder) {
		tail := n.deliveredOrder[max(0, len(n.deliveredOrder)-n.cfg.VaccineCap):]
		n.vaccine = frame.AppendList(n.vaccine[:0], tail)
		n.vaccineLen = len(n.deliveredOrder)
	}
	return n.vaccine
}

// applyVaccineLocked records delivered ids learned from a peer and
// purges any matching custody. It walks the vaccine inside the received
// frame: an id already known costs a map probe and no string.
func (n *Node) applyVaccineLocked(vaccine frame.List, peer ids.DeviceID) {
	vaccine.Each(func(b []byte) {
		if len(b) == 0 {
			return
		}
		if _, known := n.delivered[string(b)]; known {
			return
		}
		id := string(b)
		n.recordDeliveredLocked(id)
		if n.heldLocked(id) {
			n.removeLocked(id)
			n.stats.Purged++
			n.noteLocked("purge", id, peer, 0, 0)
		}
	})
}

// heldSortedLocked snapshots all custody in enqueue order.
func (n *Node) heldSortedLocked() []*bundleState {
	out := make([]*bundleState, 0, len(n.outbox)+len(n.buffer))
	for _, bs := range n.outbox {
		out = append(out, bs)
	}
	for _, bs := range n.buffer {
		out = append(out, bs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].enq < out[j].enq })
	return out
}

// expireLocked ages every held bundle by one round and drops the
// expired, in deterministic enqueue order.
func (n *Node) expireLocked() {
	for _, bs := range n.heldSortedLocked() {
		bs.b.TTL--
		if bs.b.TTL == 0 {
			n.removeLocked(bs.b.ID)
			n.stats.Expired++
			n.noteLocked("expire", bs.b.ID, "", 0, 0)
		}
	}
}

// --- submitting ---

// Send submits an addressed message under the default TTL and returns
// its bundle id. The source keeps custody (outside the bounded relay
// buffer) until a delivered-ack or expiry, so a relay crash-restart
// can never permanently lose an unexpired message.
func (n *Node) Send(dst ids.DeviceID, payload []byte) (string, error) {
	return n.SendTTL(dst, payload, 0)
}

// SendTTL submits an addressed message with an explicit TTL in rounds
// (0 means the configured default).
func (n *Node) SendTTL(dst ids.DeviceID, payload []byte, ttl int) (string, error) {
	if dst == "" {
		return "", errors.New("dtn: missing destination")
	}
	if len(payload) > maxWirePayload {
		return "", ErrPayload
	}
	if ttl <= 0 || ttl > 1<<20 {
		ttl = n.cfg.TTLRounds
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return "", ErrDown
	}
	n.seq++
	id := string(n.dev) + "#" + strconv.FormatUint(n.seq, 10)
	n.stats.Originated++
	n.stats.Accepted++
	if dst == n.dev {
		n.stats.Delivered++
		n.inbox = append(n.inbox, Message{ID: id, Src: n.dev, Payload: append([]byte(nil), payload...), Round: n.round})
		n.consumed[id] = struct{}{}
		n.recordDeliveredLocked(id)
		n.noteLocked("dlv", id, n.dev, uint64(ttl), 0)
		return id, nil
	}
	n.enqSeq++
	n.outbox[id] = &bundleState{
		b: Bundle{
			ID:      id,
			Src:     n.dev,
			Dst:     dst,
			TTL:     uint32(ttl),
			Payload: append([]byte(nil), payload...),
		},
		enq:    n.enqSeq,
		copies: n.cfg.CopyBudget,
	}
	n.noteLocked("orig", id, dst, uint64(ttl), uint64(n.cfg.CopyBudget))
	return id, nil
}

// --- active side ---

// Round executes one contact round: age TTLs, refresh the encounter
// memory from the group view, and run the offer/want/bundles/ack
// handshake with the selected neighbors. Neighbors holding one of our
// destinations are always contacted; the rest fill up to Fanout slots
// in sorted order. The Groups and Neighbors callbacks run on the
// caller; netsim.Network.Round sequences the contacts (blocking calls
// bounded by ctx on the goroutine engine, an awaited event cascade on
// a discrete-event network).
func (n *Node) Round(ctx context.Context) {
	n.net.Round(ctx, n.dev, n.tech, Port, n.planRound())
}

// RoundEvent is Round for a caller that is an event on the network's
// scheduler: the same plan runs as an event cascade, the Groups and
// Neighbors callbacks inside the event, and then is called inside the
// event that ends the round.
func (n *Node) RoundEvent(ctx *des.Ctx, then func(*des.Ctx)) {
	n.net.RoundEvent(ctx, n.dev, n.tech, Port, n.planRound(), then)
}

// planRound runs the round prologue and returns the round's contact
// source for netsim's sequencer.
func (n *Node) planRound() func() (netsim.Handshake, bool) {
	p := n.beginRound()
	return func() (netsim.Handshake, bool) {
		c, ok := n.nextContact(p)
		if !ok {
			return netsim.Handshake{}, false
		}
		return n.handshake(c), true
	}
}

// contactPlan is one round's contact schedule: the targets chosen in
// the prologue and how many of them have been walked.
type contactPlan struct {
	targets []ids.DeviceID
	next    int
}

// contact is one planned handshake: the peer, its OFFER frame, and the
// transfers the BUNDLES frame shipped, pending the closing ack.
type contact struct {
	peer  ids.DeviceID
	offer []byte
	plan  []pendingXfer
}

// beginRound is the round prologue: age custody, absorb the group
// view and pick the round's targets. A down node plans no contacts.
func (n *Node) beginRound() *contactPlan {
	n.mu.Lock()
	if n.down {
		n.mu.Unlock()
		return &contactPlan{}
	}
	n.round++
	n.stats.Rounds++
	n.expireLocked()
	n.mu.Unlock()
	if n.groups != nil {
		gs := n.groups()
		n.mu.Lock()
		n.absorbGroupsLocked(gs)
		n.mu.Unlock()
	}
	neigh := append([]ids.DeviceID(nil), n.neighbors()...)
	sort.Slice(neigh, func(i, j int) bool { return neigh[i] < neigh[j] })
	n.mu.Lock()
	dsts := make(map[ids.DeviceID]bool)
	for _, bs := range n.outbox {
		dsts[bs.b.Dst] = true
	}
	for _, bs := range n.buffer {
		dsts[bs.b.Dst] = true
	}
	n.mu.Unlock()
	p := &contactPlan{}
	for _, dev := range neigh {
		if dev != n.dev && dsts[dev] {
			p.targets = append(p.targets, dev)
		}
	}
	for _, dev := range neigh {
		if len(p.targets) >= n.cfg.Fanout {
			break
		}
		if dev == n.dev || dsts[dev] {
			continue
		}
		p.targets = append(p.targets, dev)
	}
	return p
}

// nextContact walks the plan to the next target with something to
// offer and builds its OFFER frame; it reports false when the round is
// done. Offers are built one contact at a time because each contact's
// outcome (transfers, vaccines) changes what the next one may offer.
func (n *Node) nextContact(p *contactPlan) (*contact, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for p.next < len(p.targets) {
		peer := p.targets[p.next]
		p.next++
		sums := n.buildOfferLocked(peer)
		if len(sums) == 0 {
			continue
		}
		n.stats.OffersSent++
		return &contact{peer: peer, offer: encodeOffer(n.dev, sums, n.vaccineLocked())}, true
	}
	return nil, false
}

// buildOfferLocked snapshots the strategy-eligible custody as offer
// summaries, oldest first.
func (n *Node) buildOfferLocked(peer ids.DeviceID) []Summary {
	var sums []Summary
	for _, bs := range n.heldSortedLocked() {
		if !n.offerEligibleLocked(bs, peer) {
			continue
		}
		sums = append(sums, Summary{
			ID:      bs.b.ID,
			Dst:     bs.b.Dst,
			TTL:     bs.b.TTL,
			Utility: uint32(n.utilityLocked(bs.b.Dst)),
		})
		if len(sums) == maxWireSummaries {
			break
		}
	}
	return sums
}

func (n *Node) noteExchangeError(peer ids.DeviceID) {
	n.mu.Lock()
	n.stats.ExchangeErrors++
	n.noteLocked("err", "", peer, 0, 0)
	n.mu.Unlock()
}

// reject counts one frame that failed to decode.
func (n *Node) reject() {
	n.mu.Lock()
	n.stats.FramesRejected++
	n.mu.Unlock()
}

// pendingXfer is one shipped bundle awaiting the closing ack.
type pendingXfer struct {
	id       string
	retained int
	direct   bool
}

// wantStep applies the peer's WANT reply (err is the transport error of
// getting it) and returns the BUNDLES frame: the vaccine purges what
// the peer reports delivered, and every wanted bundle still held ships
// with its share of the copy budget. It returns nil when the contact
// failed; custody only changes on the closing ack, so a failed contact
// leaves every local copy in place.
func (n *Node) wantStep(c *contact, resp []byte, err error) []byte {
	if err != nil {
		n.noteExchangeError(c.peer)
		return nil
	}
	want, vaccine, err := decodeWant(resp)
	if err != nil {
		n.reject()
		n.noteExchangeError(c.peer)
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.applyVaccineLocked(vaccine, c.peer)
	var out []Bundle
	seen := make(map[string]bool, len(want.Want))
	for _, id := range want.Want {
		if seen[id] {
			continue
		}
		seen[id] = true
		bs := n.lookupLocked(id)
		if bs == nil {
			// Purged by the vaccine above, or never offered.
			continue
		}
		give, retained := n.allocateCopiesLocked(bs, c.peer)
		out = append(out, Bundle{
			ID:      bs.b.ID,
			Src:     bs.b.Src,
			Dst:     bs.b.Dst,
			TTL:     bs.b.TTL,
			Copies:  uint32(give),
			Payload: bs.b.Payload,
		})
		c.plan = append(c.plan, pendingXfer{id: id, retained: retained, direct: bs.b.Dst == c.peer})
		if len(out) == maxWireBundles {
			break
		}
	}
	n.stats.CopiesSent += uint64(len(out))
	return MarshalBundles(FrameBundles{From: n.dev, Bundles: out})
}

// ackStep applies the peer's closing ACK: custody of every accepted
// transfer moves (a last copy or a direct delivery leaves this node,
// a split keeps the retained budget).
func (n *Node) ackStep(c *contact, resp []byte, err error) {
	if err != nil {
		n.noteExchangeError(c.peer)
		return
	}
	ack, err := UnmarshalAck(resp)
	if err != nil {
		n.reject()
		n.noteExchangeError(c.peer)
		return
	}
	accepted := make(map[string]bool, len(ack.Accepted))
	for _, id := range ack.Accepted {
		accepted[id] = true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, px := range c.plan {
		if !accepted[px.id] {
			continue
		}
		bs := n.lookupLocked(px.id)
		if bs == nil {
			continue
		}
		if px.retained == 0 {
			n.removeLocked(px.id)
			n.stats.Transferred++
			if px.direct {
				// The destination took it: seed the vaccine here so
				// the ack propagates backward along the spray paths.
				n.recordDeliveredLocked(px.id)
			}
			n.noteLocked("xfer", px.id, c.peer, 0, 0)
		} else {
			bs.copies = px.retained
			n.noteLocked("split", px.id, c.peer, uint64(px.retained), 0)
		}
	}
}

// handshake is a contact's initiator side: wantStep takes the WANT and
// builds BUNDLES, and ackStep moves custody on the closing ACK.
func (n *Node) handshake(c *contact) netsim.Handshake {
	return netsim.Handshake{To: c.peer, Open: c.offer, Step: func(resp []byte, err error) ([]byte, netsim.Step) {
		bundles := n.wantStep(c, resp, err)
		if bundles == nil {
			return nil, nil
		}
		return bundles, func(resp []byte, err error) ([]byte, netsim.Step) {
			n.ackStep(c, resp, err)
			return nil, nil
		}
	}}
}

// --- passive side ---

// offerStep serves a contact's OFFER and returns the WANT reply: the
// offer's vaccine is applied, and the reply asks for every offered
// bundle the strategy takes that is neither held nor known delivered.
// A nil reply means the frame was rejected or this node is down. The
// frame is verified once, by its decoder, before anything is applied.
func (n *Node) offerStep(data []byte) []byte {
	offer, vaccine, err := decodeOffer(data)
	if err != nil {
		n.reject()
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil
	}
	n.stats.FramesIn++
	n.stats.OffersServed++
	n.applyVaccineLocked(vaccine, offer.From)
	var want []string
	seen := make(map[string]bool, len(offer.Summaries))
	for _, s := range offer.Summaries {
		if s.ID == "" || seen[s.ID] {
			continue
		}
		seen[s.ID] = true
		if n.heldLocked(s.ID) || n.isDeliveredLocked(s.ID) {
			n.stats.Duplicates++
			continue
		}
		if n.wantLocked(s) {
			want = append(want, s.ID)
		}
	}
	return encodeWant(want, n.vaccineLocked())
}

// bundlesStep takes custody of a contact's BUNDLES and returns the ACK
// naming the accepted ones, or nil when the frame was rejected.
func (n *Node) bundlesStep(data []byte) []byte {
	bf, err := UnmarshalBundles(data)
	if err != nil {
		n.reject()
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.FramesIn++
	var accepted []string
	for i := range bf.Bundles {
		if n.acceptLocked(&bf.Bundles[i], bf.From) {
			accepted = append(accepted, bf.Bundles[i].ID)
		}
	}
	return MarshalAck(FrameAck{Accepted: accepted})
}

// serveOffer and serveBundles are the serving steps: the OFFER, then
// the BUNDLES.
func (n *Node) serveOffer(_ ids.DeviceID, data []byte) ([]byte, netsim.ServeStep) {
	return n.offerStep(data), n.serveBundles
}

func (n *Node) serveBundles(_ ids.DeviceID, data []byte) ([]byte, netsim.ServeStep) {
	return n.bundlesStep(data), nil
}

// acceptLocked takes custody of one shipped bundle (or consumes it as
// the destination). It reports whether the sender should release its
// side of the transfer.
func (n *Node) acceptLocked(b *Bundle, from ids.DeviceID) bool {
	if b.ID == "" || b.Dst == "" || b.Copies == 0 || b.TTL == 0 {
		return false
	}
	if b.Dst == n.dev {
		if _, ok := n.consumed[b.ID]; ok {
			// Already consumed: still ack so the sender purges.
			n.stats.Duplicates++
			return true
		}
		n.stats.Accepted++
		n.stats.Delivered++
		n.inbox = append(n.inbox, Message{ID: b.ID, Src: b.Src, Payload: append([]byte(nil), b.Payload...), Round: n.round})
		n.consumed[b.ID] = struct{}{}
		n.recordDeliveredLocked(b.ID)
		n.noteLocked("dlv", b.ID, from, uint64(b.TTL), 0)
		return true
	}
	if n.heldLocked(b.ID) || n.isDeliveredLocked(b.ID) {
		n.stats.Duplicates++
		return false
	}
	n.enqSeq++
	bs := &bundleState{
		b: Bundle{
			ID:      b.ID,
			Src:     b.Src,
			Dst:     b.Dst,
			TTL:     b.TTL,
			Payload: append([]byte(nil), b.Payload...),
		},
		enq:    n.enqSeq,
		copies: int(b.Copies),
	}
	for len(n.buffer) >= n.cfg.BufferCap {
		victim, isIncoming := n.evictVictimLocked(bs)
		if isIncoming {
			n.stats.Rejected++
			n.noteLocked("rej", b.ID, from, 0, 0)
			return false
		}
		delete(n.buffer, victim)
		n.stats.Evicted++
		n.noteLocked("evict", victim, from, 0, 0)
	}
	n.buffer[b.ID] = bs
	n.stats.Accepted++
	n.stats.CopiesReceived++
	n.noteLocked("acc", b.ID, from, uint64(b.TTL), uint64(b.Copies))
	return true
}

// --- crash-restart ---

// SetDown marks the node crashed (true) or restored (false). While
// down, Round is a no-op, Send fails, and inbound contacts are
// dropped — matching the fault plane, which folds crash windows into
// link visibility.
func (n *Node) SetDown(down bool) {
	n.mu.Lock()
	n.down = down
	n.mu.Unlock()
}

// DropVolatile models the restart after a crash: the relay buffer and
// the encounter memory are volatile and lost. The source outbox, the
// consumed inbox and the delivered log survive (application storage) —
// that retention is what makes post-heal delivery of every unexpired
// message provable.
func (n *Node) DropVolatile() {
	n.mu.Lock()
	defer n.mu.Unlock()
	dropped := uint64(len(n.buffer))
	n.stats.CrashDropped += dropped
	n.buffer = make(map[string]*bundleState)
	n.met = make(map[ids.DeviceID]map[string]struct{})
	n.noteLocked("crash", "", "", dropped, 0)
}

// --- observers ---

// Stats snapshots the node's counters; Buffered is sampled live.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.stats
	s.Buffered = uint64(len(n.outbox) + len(n.buffer))
	return s
}

// Received snapshots the messages consumed as destination, in arrival
// order.
func (n *Node) Received() []Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Message, len(n.inbox))
	copy(out, n.inbox)
	return out
}

// Consumed reports whether this node has delivered the bundle to its
// local application.
func (n *Node) Consumed(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.consumed[id]
	return ok
}

// KnowsDelivered reports whether the node has learned (locally or via
// vaccine) that the bundle was delivered.
func (n *Node) KnowsDelivered(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.isDeliveredLocked(id)
}

// Holding snapshots the ids currently under custody, sorted.
func (n *Node) Holding() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.outbox)+len(n.buffer))
	for id := range n.outbox {
		out = append(out, id)
	}
	for id := range n.buffer {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
