package gossip

import (
	"context"
	"errors"
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/frame"
	"repro/internal/ids"
	"repro/internal/interest"
	"repro/internal/netsim"
	"repro/internal/radio"
)

// Port is the listener port every gossip node binds. It lives next to
// the daemon/community service ports in the device's port namespace.
const Port = "gossip"

// Config tunes the epidemic. The zero value is normalized to the
// defaults below (mirroring the PeerSim exemplar knobs: greedy rumor
// mongering, bloom_false_positive 0.01, periodic anti-entropy,
// CyclonSN shuffle).
type Config struct {
	// Fanout is how many rumor pushes a node attempts per round.
	Fanout int
	// HotCount is a fresh rumor's initial hot counter; each push the
	// receiver already knew decays it by one, and at zero the node
	// stops pushing the rumor (greedy feedback-counter mongering).
	HotCount int
	// BloomFP is the configured false-positive rate of "have" digests.
	BloomFP float64
	// AEEvery runs one anti-entropy exchange every AEEvery-th round.
	AEEvery int
	// ViewSize caps the peer-sampling view.
	ViewSize int
	// Shuffle is how many view entries ride on each frame.
	Shuffle int
	// DisableRumors suppresses the push phase entirely — convergence
	// then rests on anti-entropy alone (the chaos suite uses this to
	// prove the anti-entropy guarantee in isolation).
	DisableRumors bool
	// DisableAntiEntropy suppresses the periodic reconciliation.
	DisableAntiEntropy bool
}

func (c Config) withDefaults() Config {
	if c.Fanout <= 0 {
		c.Fanout = 1
	}
	if c.HotCount <= 0 {
		c.HotCount = 2
	}
	if c.BloomFP <= 0 || c.BloomFP >= 1 {
		c.BloomFP = 0.01
	}
	if c.AEEvery <= 0 {
		c.AEEvery = 4
	}
	if c.ViewSize <= 0 {
		c.ViewSize = 16
	}
	if c.Shuffle <= 0 {
		c.Shuffle = 4
	}
	return c
}

// Stats counts one node's gossip activity. All counters are
// monotonically increasing; Add folds another node's counters in, so a
// deployment can report fleet totals.
type Stats struct {
	Rounds           uint64 // Round calls
	PushesSent       uint64 // rumor frames pushed
	PushesSkipped    uint64 // pushes skipped because the cached digest covered every hot rumor
	PushErrors       uint64 // rumor exchanges that failed (dial/send/recv)
	RumorRecordsSent uint64 // records carried by pushed rumor frames
	RumorsDied       uint64 // hot counters that decayed to zero
	RecordsLearned   uint64 // fresh records applied (any source)
	AERuns           uint64 // anti-entropy exchanges initiated
	AEErrors         uint64 // anti-entropy exchanges that failed
	AERecordsPulled  uint64 // records learned from anti-entropy replies
	AERecordsPushed  uint64 // records sent in closing anti-entropy deltas
	FramesIn         uint64 // well-formed frames served
	FramesRejected   uint64 // frames that failed decode
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Rounds += other.Rounds
	s.PushesSent += other.PushesSent
	s.PushesSkipped += other.PushesSkipped
	s.PushErrors += other.PushErrors
	s.RumorRecordsSent += other.RumorRecordsSent
	s.RumorsDied += other.RumorsDied
	s.RecordsLearned += other.RecordsLearned
	s.AERuns += other.AERuns
	s.AEErrors += other.AEErrors
	s.AERecordsPulled += other.AERecordsPulled
	s.AERecordsPushed += other.AERecordsPushed
	s.FramesIn += other.FramesIn
	s.FramesRejected += other.FramesRejected
}

// Params wires a Node into a device.
type Params struct {
	Device ids.DeviceID
	Member ids.MemberID
	// Self supplies the local record (interests + store epoch) at the
	// top of every round; Member/Device are overwritten by the node.
	// The scenario wiring reads the live profile store, so an interest
	// edit bumps the epoch and becomes a fresh rumor automatically.
	Self func() Record
	// Neighbors supplies the current radio neighborhood — gossip only
	// ever dials devices that are actually in range, and group views
	// are intersected with this set (proximity groups, not global
	// membership).
	Neighbors func() []ids.DeviceID
	Net       *netsim.Network
	// Tech defaults to Bluetooth, the thesis's proximity technology.
	Tech radio.Technology
	// Sem is the shared taught-synonym layer; may be nil, and must
	// match the fan-out client's so both engines canon the same way.
	Sem  *interest.Semantics
	Seed int64
	Config
}

// Node is one device's gossip engine. It is driven externally:
// Round(ctx), or RoundEvent from inside an event, executes one gossip
// round (rumor pushes, then possibly an anti-entropy exchange); nothing
// runs on a timer, which keeps the schedule deterministic under the
// sequential chaos driver and makes the node engine-agnostic (netsim
// sequences its handshakes on either transport engine). Start serves
// the passive side.
type Node struct {
	dev       ids.DeviceID
	member    ids.MemberID
	self      func() Record
	neighbors func() []ids.DeviceID
	net       *netsim.Network
	tech      radio.Technology
	cfg       Config
	mgr       *core.Manager

	mu       sync.Mutex
	records  map[ids.MemberID]Record
	byDevice map[ids.DeviceID]ids.MemberID
	hot      map[ids.MemberID]int
	peerHave map[ids.DeviceID]*Bloom
	view     []ViewEntry
	rngState uint64
	round    uint64
	version  uint64
	stats    Stats

	svc     *netsim.Service
	started bool
}

// NewNode builds a node; call Start to begin serving.
func NewNode(p Params) (*Node, error) {
	if p.Device == "" || p.Member == "" {
		return nil, errors.New("gossip: missing device or member")
	}
	if p.Self == nil || p.Neighbors == nil || p.Net == nil {
		return nil, errors.New("gossip: missing Self, Neighbors or Net")
	}
	if p.Tech == radio.TechNone {
		p.Tech = radio.Bluetooth
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(p.Device))
	n := &Node{
		dev:       p.Device,
		member:    p.Member,
		self:      p.Self,
		neighbors: p.Neighbors,
		net:       p.Net,
		tech:      p.Tech,
		cfg:       p.Config.withDefaults(),
		mgr: core.NewManager(core.Member{
			Device: p.Device,
			ID:     p.Member,
		}, p.Sem),
		records:  make(map[ids.MemberID]Record),
		byDevice: make(map[ids.DeviceID]ids.MemberID),
		hot:      make(map[ids.MemberID]int),
		peerHave: make(map[ids.DeviceID]*Bloom),
		rngState: mix64(uint64(p.Seed) ^ h.Sum64()),
	}
	return n, nil
}

// Start binds the gossip port and serves inbound exchanges until Stop.
func (n *Node) Start() error {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return errors.New("gossip: already started")
	}
	n.started = true
	n.mu.Unlock()
	lis, err := n.net.Listen(n.dev, Port)
	if err != nil {
		return err
	}
	n.svc = lis.Serve(n.serveOpen)
	return nil
}

// Stop ends the service and waits for every serving goroutine (the
// leak checker holds us to that).
func (n *Node) Stop() {
	if n.svc != nil {
		n.svc.Stop()
	}
}

// --- record state ---

// applyLocked folds one remote record in; it reports true when the
// record was fresh (unknown member or newer epoch). Fresh records
// re-enter the hot set — the relay half of rumor mongering. Records
// claiming the local member identity are ignored: only the local store
// authors those.
func (n *Node) applyLocked(rec Record) bool {
	if rec.Member == "" || rec.Device == "" || rec.Member == n.member {
		return false
	}
	if cur, ok := n.records[rec.Member]; ok && rec.Epoch <= cur.Epoch {
		return false
	}
	n.records[rec.Member] = rec
	n.byDevice[rec.Device] = rec.Member
	n.hot[rec.Member] = n.cfg.HotCount
	n.version++
	n.stats.RecordsLearned++
	return true
}

// refreshSelf pulls the local record from the supplier; an epoch bump
// (interest edit, profile change) re-hots the self rumor.
func (n *Node) refreshSelf() {
	rec := n.self()
	rec.Member, rec.Device = n.member, n.dev
	n.mu.Lock()
	cur, ok := n.records[n.member]
	if !ok || rec.Epoch > cur.Epoch {
		n.records[n.member] = rec
		n.byDevice[n.dev] = n.member
		n.hot[n.member] = n.cfg.HotCount
		n.version++
	}
	n.mu.Unlock()
}

// decayHotLocked applies redundant-push feedback for one record; the
// epoch guard keeps a stale ack from decaying a rumor that was re-hotted
// by a newer epoch meanwhile.
func (n *Node) decayHotLocked(rec Record) {
	cur, ok := n.records[rec.Member]
	if !ok || cur.Epoch != rec.Epoch {
		return
	}
	h, ok := n.hot[rec.Member]
	if !ok {
		return
	}
	h--
	if h <= 0 {
		delete(n.hot, rec.Member)
		n.stats.RumorsDied++
		return
	}
	n.hot[rec.Member] = h
}

// hotRecordsLocked snapshots the hot set sorted by member.
func (n *Node) hotRecordsLocked() []Record {
	if len(n.hot) == 0 {
		return nil
	}
	out := make([]Record, 0, len(n.hot))
	for m := range n.hot {
		if rec, ok := n.records[m]; ok {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Member < out[j].Member })
	return out
}

// buildBloomLocked digests the full record set under a fresh rng salt.
func (n *Node) buildBloomLocked() *Bloom {
	b := NewBloom(len(n.records), n.cfg.BloomFP, n.nextRand())
	for _, rec := range n.records {
		b.addRecord(rec)
	}
	return b
}

// missingLocked returns the records a peer's digest does not cover,
// sorted by member.
func (n *Node) missingLocked(have *Bloom) []Record {
	var out []Record
	for _, rec := range n.records {
		if !have.hasRecord(rec) {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Member < out[j].Member })
	return out
}

func maskBit(mask []byte, i int) bool {
	if i>>3 >= len(mask) {
		return false
	}
	return mask[i>>3]&(1<<(i&7)) != 0
}

// --- active side ---

// Round executes one gossip round: refresh the local record, push hot
// rumors to socially sampled partners, and every AEEvery-th round run
// one anti-entropy reconciliation with a uniformly drawn neighbor. The
// Self and Neighbors callbacks run on the caller; netsim.Network.Round
// sequences the handshakes (blocking calls bounded by ctx on the
// goroutine engine, an awaited event cascade on a discrete-event
// network).
func (n *Node) Round(ctx context.Context) {
	n.net.Round(ctx, n.dev, n.tech, Port, n.planRound())
	n.ageView()
}

// RoundEvent is Round for a caller that is an event on the network's
// scheduler: the same plan runs as an event cascade, the Self and
// Neighbors callbacks inside the event, and then is called inside the
// event that ends the round.
func (n *Node) RoundEvent(ctx *des.Ctx, then func(*des.Ctx)) {
	n.net.RoundEvent(ctx, n.dev, n.tech, Port, n.planRound(), func(ctx *des.Ctx) {
		n.ageView()
		then(ctx)
	})
}

// planRound runs the round prologue and returns the round's handshake
// source for netsim's sequencer.
func (n *Node) planRound() func() (netsim.Handshake, bool) {
	p := n.beginRound()
	return func() (netsim.Handshake, bool) {
		x, ok := n.nextExchange(p)
		if !ok {
			return netsim.Handshake{}, false
		}
		return n.handshake(x), true
	}
}

// roundPlan is one round's exchange schedule: the sorted neighborhood
// the round's callback returned, the hot rumors still to push (nil once
// the push phase is over), the partners drawn so far, and whether
// anti-entropy is still due.
type roundPlan struct {
	neigh  []ids.DeviceID
	hot    []Record
	used   map[ids.DeviceID]bool
	pushes int // push slots drawn so far
	ae     bool
}

// exchange is one planned handshake with partner: a rumor push carrying
// fresh, or (digest) an anti-entropy run. frame is its opening frame.
type exchange struct {
	partner ids.DeviceID
	digest  bool
	fresh   []Record
	frame   []byte
}

// beginRound is the round prologue: refresh the local record, count the
// round, and snapshot the neighborhood and the hot rumors.
func (n *Node) beginRound() *roundPlan {
	n.refreshSelf()
	n.mu.Lock()
	n.round++
	r := n.round
	n.stats.Rounds++
	n.mu.Unlock()
	neigh := append([]ids.DeviceID(nil), n.neighbors()...)
	sort.Slice(neigh, func(i, j int) bool { return neigh[i] < neigh[j] })
	p := &roundPlan{neigh: neigh}
	if len(neigh) == 0 {
		return p
	}
	if !n.cfg.DisableRumors {
		n.mu.Lock()
		p.hot = n.hotRecordsLocked()
		n.mu.Unlock()
		p.used = make(map[ids.DeviceID]bool, n.cfg.Fanout)
	}
	p.ae = !n.cfg.DisableAntiEntropy && r%uint64(n.cfg.AEEvery) == 0
	return p
}

// nextExchange draws the round's next handshake: up to Fanout rumor
// pushes to socially weighted partners (skipping a partner whose cached
// digest already covers every hot rumor), then the anti-entropy run.
// It reports false when the round has nothing left to exchange.
func (n *Node) nextExchange(p *roundPlan) (exchange, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for len(p.hot) > 0 && p.pushes < n.cfg.Fanout {
		p.pushes++
		partner := n.pickPartner(p.neigh, p.used)
		if partner == "" {
			break
		}
		p.used[partner] = true
		have := n.peerHave[partner]
		var fresh []Record
		for _, rec := range p.hot {
			if !have.hasRecord(rec) {
				fresh = append(fresh, rec)
			}
		}
		if len(fresh) == 0 {
			n.stats.PushesSkipped++
			continue
		}
		frame := MarshalRumor(FrameRumor{From: n.dev, Records: fresh, View: n.viewSample()})
		return exchange{partner: partner, fresh: fresh, frame: frame}, true
	}
	p.hot = nil
	if p.ae {
		p.ae = false
		if partner := n.pickUniform(p.neigh); partner != "" {
			frame := MarshalDigest(FrameDigest{From: n.dev, Bloom: n.buildBloomLocked(), View: n.viewSample()})
			return exchange{partner: partner, digest: true, frame: frame}, true
		}
	}
	return exchange{}, false
}

// failExchange records a failed exchange and drops the partner's cached
// digest — after an error we no longer know what they have.
func (n *Node) failExchange(x exchange) {
	n.mu.Lock()
	if x.digest {
		n.stats.AEErrors++
	} else {
		n.stats.PushErrors++
	}
	delete(n.peerHave, x.partner)
	n.mu.Unlock()
}

// replyStep applies the partner's reply to an exchange's opening frame
// (err is the transport error of getting it) and returns the closing
// frame the exchange still owes: the closing delta of an anti-entropy
// run, nil for a rumor push or a failed exchange. A push's ack decays
// the rumors the partner already knew and caches its digest; an
// anti-entropy delta applies the pulled records, and the closing delta
// pushes back what the partner's digest lacks. A reply that fails to
// decode fails the exchange.
func (n *Node) replyStep(x exchange, resp []byte, err error) []byte {
	if err != nil {
		n.failExchange(x)
		return nil
	}
	if !x.digest {
		ack, err := UnmarshalAck(resp)
		if err != nil {
			n.reject()
			n.failExchange(x)
			return nil
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		n.stats.PushesSent++
		n.stats.RumorRecordsSent += uint64(len(x.fresh))
		for i, rec := range x.fresh {
			if maskBit(ack.KnownMask, i) {
				n.decayHotLocked(rec)
			}
		}
		if ack.Bloom != nil {
			n.peerHave[x.partner] = ack.Bloom
		}
		n.mergeView(ack.View, "", "")
		return nil
	}
	delta, err := UnmarshalDelta(resp)
	if err != nil {
		n.reject()
		n.failExchange(x)
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	pulled := uint64(0)
	for _, rec := range delta.Records {
		if n.applyLocked(rec) {
			pulled++
		}
	}
	var back []Record
	if delta.Bloom != nil {
		back = n.missingLocked(delta.Bloom)
		n.peerHave[x.partner] = delta.Bloom
	}
	n.stats.AERuns++
	n.stats.AERecordsPulled += pulled
	n.stats.AERecordsPushed += uint64(len(back))
	return MarshalDelta(FrameDelta{From: n.dev, Records: back})
}

// reject counts one frame that failed to decode.
func (n *Node) reject() {
	n.mu.Lock()
	n.stats.FramesRejected++
	n.mu.Unlock()
}

// handshake is an exchange's initiator side: replyStep takes the reply
// to the opening frame, and the closing delta an anti-entropy run owes
// waits for the partner's final ack, so the exchange is fully applied
// on both sides before the round returns (the sequential chaos driver
// relies on rounds being settled).
func (n *Node) handshake(x exchange) netsim.Handshake {
	return netsim.Handshake{To: x.partner, Open: x.frame, Step: func(resp []byte, err error) ([]byte, netsim.Step) {
		closing := n.replyStep(x, resp, err)
		if closing == nil {
			return nil, nil
		}
		return closing, func(_ []byte, err error) ([]byte, netsim.Step) {
			if err != nil {
				n.failExchange(x)
			}
			return nil, nil
		}
	}}
}

// --- passive side ---

// openStep serves an exchange's opening frame and returns the reply:
// a rumor is applied and acked with the records it carried that were
// already known, our digest and a view sample; a digest is answered
// with the records it lacks plus our own digest, and more reports that
// a closing delta follows. A nil reply means the frame was rejected.
// Dispatch reads the kind byte alone; the kind's decoder verifies the
// frame once.
func (n *Node) openStep(data []byte) (reply []byte, more bool) {
	switch frame.Kind(data) {
	case kindRumor:
		f, err := UnmarshalRumor(data)
		if err != nil {
			n.reject()
			return nil, false
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		n.stats.FramesIn++
		mask := make([]byte, (len(f.Records)+7)/8)
		for i, rec := range f.Records {
			if !n.applyLocked(rec) {
				mask[i>>3] |= 1 << (i & 7)
			}
		}
		n.mergeView(f.View, "", "")
		return MarshalAck(FrameAck{KnownMask: mask, Bloom: n.buildBloomLocked(), View: n.viewSample()}), false
	case kindDigest:
		f, err := UnmarshalDigest(data)
		if err != nil {
			n.reject()
			return nil, false
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		n.stats.FramesIn++
		if f.Bloom != nil && f.From != "" {
			n.peerHave[f.From] = f.Bloom
		}
		n.mergeView(f.View, "", "")
		fresh := n.missingLocked(f.Bloom)
		return MarshalDelta(FrameDelta{From: n.dev, Records: fresh, Bloom: n.buildBloomLocked()}), true
	default:
		n.reject()
		return nil, false
	}
}

// closingStep applies an anti-entropy run's closing delta and returns
// the final ack, or nil when the delta was rejected.
func (n *Node) closingStep(data []byte) []byte {
	closing, err := UnmarshalDelta(data)
	if err != nil {
		n.reject()
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, rec := range closing.Records {
		n.applyLocked(rec)
	}
	return MarshalAck(FrameAck{})
}

// serveOpen and serveClosing are the serving steps: an opening frame,
// then the closing delta when an anti-entropy run owes one.
func (n *Node) serveOpen(_ ids.DeviceID, data []byte) ([]byte, netsim.ServeStep) {
	reply, more := n.openStep(data)
	if !more {
		return reply, nil
	}
	return reply, n.serveClosing
}

func (n *Node) serveClosing(_ ids.DeviceID, data []byte) ([]byte, netsim.ServeStep) {
	return n.closingStep(data), nil
}

// --- views ---

// Refresh recomputes the group view from the gossiped records
// intersected with the current radio neighborhood and returns the
// resulting membership events. Groups stay proximity-scoped: a record
// learned transitively only counts while its device is in range, which
// is exactly the fan-out engine's (and the oracle's) semantics.
func (n *Node) Refresh() []core.Event {
	n.refreshSelf()
	neigh := n.neighbors()
	n.mu.Lock()
	self := n.records[n.member]
	nearby := make([]core.Member, 0, len(neigh))
	for _, dev := range neigh {
		if dev == n.dev {
			continue
		}
		m, ok := n.byDevice[dev]
		if !ok {
			continue
		}
		rec, ok := n.records[m]
		if !ok || rec.Device != dev {
			continue
		}
		nearby = append(nearby, core.Member{
			Device:    rec.Device,
			ID:        rec.Member,
			Interests: append([]string(nil), rec.Interests...),
		})
	}
	n.mu.Unlock()
	sort.Slice(nearby, func(i, j int) bool { return nearby[i].ID < nearby[j].ID })
	n.mgr.SetInterests(self.Interests)
	return n.mgr.Update(nearby)
}

// Groups returns the current group view (call Refresh first).
func (n *Node) Groups() []core.Group { return n.mgr.Groups() }

// Version is a monotonic counter of record-state changes; a stable
// fleet-wide sum across rounds means the epidemic has quiesced.
func (n *Node) Version() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.version
}

// Stats snapshots the node's counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Records snapshots the known records sorted by member.
func (n *Node) Records() []Record {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Record, 0, len(n.records))
	for _, rec := range n.records {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Member < out[j].Member })
	return out
}

// HasRecord reports whether the node knows a record for the device at
// at least the given epoch.
func (n *Node) HasRecord(dev ids.DeviceID, epoch uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	m, ok := n.byDevice[dev]
	if !ok {
		return false
	}
	rec, ok := n.records[m]
	return ok && rec.Device == dev && rec.Epoch >= epoch
}
