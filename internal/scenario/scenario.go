// Package scenario assembles complete PeerHood Community deployments —
// radio world, network, daemons, profile stores, servers and clients —
// from a declarative description, so experiments, examples and tools
// build their worlds the same way. It is the "downstream user" API for
// standing up a neighborhood in a few lines.
package scenario

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/community"
	"repro/internal/des"
	"repro/internal/dtn"
	"repro/internal/geo"
	"repro/internal/gossip"
	"repro/internal/ids"
	"repro/internal/interest"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/peerhood"
	"repro/internal/profile"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// PeerSpec describes one participant device.
type PeerSpec struct {
	// Member is the logged-in user; it also derives the device ID
	// ("dev-<member>") unless Device is set.
	Member ids.MemberID
	// Device optionally overrides the device ID.
	Device ids.DeviceID
	// Position places the device statically; ignored if Mobility set.
	Position geo.Point
	// Mobility overrides static placement.
	Mobility mobility.Model
	// Interests are the member's personal interests.
	Interests []string
	// Technologies defaults to Bluetooth only.
	Technologies []radio.Technology
	// Trusts lists members this peer accepts as trusted friends.
	Trusts []ids.MemberID
	// Shared content, name → bytes.
	Shared map[string][]byte
}

func (p PeerSpec) deviceID() ids.DeviceID {
	if p.Device != "" {
		return p.Device
	}
	return ids.DeviceID("dev-" + string(p.Member))
}

// Builder accumulates a deployment description.
type Builder struct {
	scale      vtime.Scale
	seed       int64
	semantics  *interest.Semantics
	peers      []PeerSpec
	gprsProxy  ids.DeviceID
	phys       []radio.PHY
	serverOpts community.ServerOptions
	hasSrvOpts bool
	resilience community.ResilienceOptions
	hasResil   bool
	useDES     bool
	desShards  int
	desWorkers int
	useGossip  bool
	gossipCfg  gossip.Config
	useDTN     bool
	dtnCfg     dtn.Config
}

// desDefaultShards is the event scheduler's shard count when WithDES
// is given no override; homes are hashed so any count yields the same
// trace, this only sets the intra-window parallelism.
const desDefaultShards = 8

// NewBuilder returns a builder with the benchmark-grade default scale
// (one modeled second per 10 ms).
func NewBuilder() *Builder {
	return &Builder{scale: vtime.NewScale(1e-2), seed: 1}
}

// WithScale sets the latency scale.
func (b *Builder) WithScale(s vtime.Scale) *Builder {
	b.scale = s
	return b
}

// WithSeed sets the world seed.
func (b *Builder) WithSeed(seed int64) *Builder {
	b.seed = seed
	return b
}

// WithSemantics installs a shared taught-synonym layer on every client.
func (b *Builder) WithSemantics(sem *interest.Semantics) *Builder {
	b.semantics = sem
	return b
}

// WithGPRSProxy routes every daemon's GPRS connections through the
// named operator device (added automatically with a GPRS radio).
func (b *Builder) WithGPRSProxy(dev ids.DeviceID) *Builder {
	b.gprsProxy = dev
	return b
}

// WithPHY overrides one technology's physical model for the whole
// world — e.g. scenario.NewBuilder().WithPHY(radio.PHYForWLANStandard("IEEE 802.11g")).
func (b *Builder) WithPHY(phy radio.PHY) *Builder {
	b.phys = append(b.phys, phy)
	return b
}

// WithServerOptions sets every server's overload limits (admission
// queue, per-peer rate limits, write deadlines).
func (b *Builder) WithServerOptions(opts community.ServerOptions) *Builder {
	b.serverOpts = opts
	b.hasSrvOpts = true
	return b
}

// WithResilience sets every client's degradation knobs (per-peer
// circuit breakers, hedged requests).
func (b *Builder) WithResilience(opts community.ResilienceOptions) *Builder {
	b.resilience = opts
	b.hasResil = true
	return b
}

// WithDES switches the deployment to the discrete-event engine: the
// world runs on a des.Scheduler's virtual clock (radio environment,
// transport, daemons, servers), message transfers and link sweeps are
// scheduled events, and wall-clock time is spent per event rather than
// per timer wait. shards > 0 overrides the scheduler's shard count;
// pass 0 for the default. The goroutine engine remains the default and
// the differential oracle.
func (b *Builder) WithDES(shards int) *Builder {
	b.useDES = true
	b.desShards = shards
	return b
}

// WithDESWorkers overrides the event scheduler's executor count
// (default GOMAXPROCS): how many workers share each window's shard
// batches. Worker count trades wall-clock only — the trace hash and
// every observable are invariant under it. Implies WithDES semantics
// only when WithDES is also called; on the goroutine engine it is
// ignored.
func (b *Builder) WithDESWorkers(workers int) *Builder {
	b.desWorkers = workers
	return b
}

// WithGossip attaches an epidemic discovery engine to every peer: a
// gossip.Node reading the live profile store (interest edits bump the
// store epoch and become fresh rumors) and the daemon's radio
// neighborhood, serving on the gossip port next to the community
// server. Rounds are driven explicitly (Peer.Gossip.Round), so the
// engine works identically on the goroutine and DES transports. The
// zero Config takes the package defaults.
func (b *Builder) WithGossip(cfg gossip.Config) *Builder {
	b.useGossip = true
	b.gossipCfg = cfg
	return b
}

// WithDTN attaches a store-carry-forward delivery engine to every
// peer: a dtn.Node that takes custody of addressed messages, buffers
// them across disconnection under the configured TTL and eviction
// policy, and forwards on contact per the configured relay strategy.
// The social strategy reads each peer's dynamic group views
// (community.Client.Groups), so it composes with the same discovery
// pipeline the rest of the deployment uses. Rounds are driven
// explicitly (Peer.DTN.Round), so the engine works identically on the
// goroutine and DES transports. The zero Config takes the package
// defaults.
func (b *Builder) WithDTN(cfg dtn.Config) *Builder {
	b.useDTN = true
	b.dtnCfg = cfg
	return b
}

// AddPeer appends a participant.
func (b *Builder) AddPeer(spec PeerSpec) *Builder {
	b.peers = append(b.peers, spec)
	return b
}

// Peer is one running participant.
type Peer struct {
	Spec   PeerSpec
	Daemon *peerhood.Daemon
	Lib    *peerhood.Library
	Store  *profile.Store
	Server *community.Server
	Client *community.Client
	Gossip *gossip.Node // nil unless built WithGossip
	DTN    *dtn.Node    // nil unless built WithDTN
}

// Deployment is a running world.
type Deployment struct {
	Env   *radio.Environment
	Net   *netsim.Network
	Proxy *netsim.Proxy  // nil unless a GPRS proxy was configured
	Sched *des.Scheduler // nil unless built WithDES
	peers map[ids.MemberID]*Peer
}

// NewTransport builds a world's radio environment, with the given
// options, and its network at seed and scale. With useDES both run on
// a new discrete-event scheduler, not yet started: shards > 0 overrides
// its shard count (default 8) and workers > 0 its executor count.
// Otherwise sched is nil and the network is the goroutine engine.
func NewTransport(seed int64, scale vtime.Scale, useDES bool, shards, workers int, opts ...radio.Option) (*radio.Environment, *des.Scheduler, *netsim.Network) {
	opts = append([]radio.Option{radio.WithScale(scale)}, opts...)
	if !useDES {
		env := radio.NewEnvironment(opts...)
		return env, nil, netsim.New(env, seed)
	}
	if shards <= 0 {
		shards = desDefaultShards
	}
	sched := des.NewScheduler(seed, shards)
	if workers > 0 {
		sched.SetWorkers(workers)
	}
	env := radio.NewEnvironment(append(opts, radio.WithClock(sched.Clock()))...)
	return env, sched, netsim.NewDES(env, seed, sched)
}

// Build assembles and starts the deployment.
func (b *Builder) Build() (*Deployment, error) {
	if len(b.peers) == 0 {
		return nil, fmt.Errorf("scenario: no peers declared")
	}
	var phys []radio.Option
	for _, phy := range b.phys {
		phys = append(phys, radio.WithPHY(phy))
	}
	env, sched, net := NewTransport(b.seed, b.scale, b.useDES, b.desShards, b.desWorkers, phys...)
	if sched != nil {
		sched.Start()
	}
	d := &Deployment{Env: env, Net: net, Sched: sched, peers: make(map[ids.MemberID]*Peer, len(b.peers))}

	if b.gprsProxy != "" {
		if err := env.Add(b.gprsProxy, mobility.Static{}, radio.GPRS); err != nil {
			d.Stop()
			return nil, fmt.Errorf("scenario: placing proxy: %w", err)
		}
		proxy, err := netsim.NewProxy(net, b.gprsProxy)
		if err != nil {
			d.Stop()
			return nil, err
		}
		d.Proxy = proxy
	}

	for _, spec := range b.peers {
		peer, err := b.buildPeer(d, spec)
		if err != nil {
			d.Stop()
			return nil, fmt.Errorf("scenario: peer %q: %w", spec.Member, err)
		}
		d.peers[spec.Member] = peer
	}
	// Trust relations are cross-peer, so apply them after all stores
	// exist (they only touch the owner's store, but this keeps a single
	// failure point).
	for _, spec := range b.peers {
		owner := d.peers[spec.Member]
		for _, friend := range spec.Trusts {
			if err := owner.Store.AddTrusted(spec.Member, friend); err != nil {
				d.Stop()
				return nil, fmt.Errorf("scenario: trusting %q: %w", friend, err)
			}
		}
	}
	return d, nil
}

func (b *Builder) buildPeer(d *Deployment, spec PeerSpec) (*Peer, error) {
	if !spec.Member.Valid() {
		return nil, fmt.Errorf("invalid member id %q", spec.Member)
	}
	if _, dup := d.peers[spec.Member]; dup {
		return nil, fmt.Errorf("duplicate member %q", spec.Member)
	}
	model := spec.Mobility
	if model == nil {
		model = mobility.Static{At: spec.Position}
	}
	techs := spec.Technologies
	if len(techs) == 0 {
		techs = []radio.Technology{radio.Bluetooth}
	}
	dev := spec.deviceID()
	if err := d.Env.Add(dev, model, techs...); err != nil {
		return nil, err
	}
	daemon, err := peerhood.NewDaemon(peerhood.Config{
		Device:    dev,
		Network:   d.Net,
		GPRSProxy: b.gprsProxy,
	})
	if err != nil {
		return nil, err
	}
	lib := peerhood.NewLibrary(daemon)
	store := profile.NewStore(nil)
	if err := store.CreateAccount(spec.Member, "pw-"+string(spec.Member)); err != nil {
		return nil, err
	}
	if err := store.Login(spec.Member, "pw-"+string(spec.Member)); err != nil {
		return nil, err
	}
	for _, term := range spec.Interests {
		if err := store.AddInterest(spec.Member, term); err != nil {
			return nil, err
		}
	}
	var server *community.Server
	var err2 error
	if b.hasSrvOpts {
		server, err2 = community.NewServerWith(lib, store, b.serverOpts)
	} else {
		server, err2 = community.NewServer(lib, store)
	}
	if err2 != nil {
		return nil, err2
	}
	if err := server.Start(); err != nil {
		return nil, err
	}
	for name, data := range spec.Shared {
		if err := server.ShareContent(spec.Member, name, data); err != nil {
			return nil, err
		}
	}
	client, err := community.NewClient(lib, store, b.semantics)
	if err != nil {
		return nil, err
	}
	if b.hasResil {
		client.SetResilience(b.resilience)
	}
	var gnode *gossip.Node
	if b.useGossip {
		env := d.Env
		gnode, err = gossip.NewNode(gossip.Params{
			Device: dev,
			Member: spec.Member,
			Self: func() gossip.Record {
				rec := gossip.Record{Epoch: store.Epoch()}
				if p, err := store.ActiveProfile(); err == nil {
					rec.Interests = append([]string(nil), p.Interests...)
				}
				return rec
			},
			Neighbors: func() []ids.DeviceID { return env.Neighbors(dev, radio.Bluetooth) },
			Net:       d.Net,
			Sem:       b.semantics,
			Seed:      b.seed,
			Config:    b.gossipCfg,
		})
		if err != nil {
			return nil, err
		}
		if err := gnode.Start(); err != nil {
			return nil, err
		}
	}
	var dnode *dtn.Node
	if b.useDTN {
		env := d.Env
		dnode, err = dtn.NewNode(dtn.Params{
			Device:    dev,
			Neighbors: func() []ids.DeviceID { return env.Neighbors(dev, radio.Bluetooth) },
			Groups:    client.Groups,
			Net:       d.Net,
			Seed:      b.seed,
			Config:    b.dtnCfg,
		})
		if err != nil {
			return nil, err
		}
		if err := dnode.Start(); err != nil {
			return nil, err
		}
	}
	return &Peer{Spec: spec, Daemon: daemon, Lib: lib, Store: store, Server: server, Client: client, Gossip: gnode, DTN: dnode}, nil
}

// Peer returns a participant by member ID.
func (d *Deployment) Peer(member ids.MemberID) (*Peer, bool) {
	p, ok := d.peers[member]
	return p, ok
}

// MustPeer returns a participant or panics; for examples and tests
// where the member is known to exist.
func (d *Deployment) MustPeer(member ids.MemberID) *Peer {
	p, ok := d.peers[member]
	if !ok {
		panic(fmt.Sprintf("scenario: no peer %q", member))
	}
	return p
}

// Members lists the deployed members, sorted.
func (d *Deployment) Members() []ids.MemberID {
	out := make([]ids.MemberID, 0, len(d.peers))
	for m := range d.peers {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RefreshAll runs one discovery round on every daemon.
func (d *Deployment) RefreshAll(ctx context.Context) error {
	for _, m := range d.Members() {
		if err := d.peers[m].Daemon.RefreshNow(ctx); err != nil {
			return fmt.Errorf("scenario: refreshing %q: %w", m, err)
		}
	}
	return nil
}

// StartAll launches every daemon's background loops.
func (d *Deployment) StartAll() error {
	for _, m := range d.Members() {
		if err := d.peers[m].Daemon.Start(); err != nil {
			return fmt.Errorf("scenario: starting %q: %w", m, err)
		}
	}
	return nil
}

// Stop tears the whole deployment down.
func (d *Deployment) Stop() {
	for _, p := range d.peers {
		if p.DTN != nil {
			p.DTN.Stop()
		}
		if p.Gossip != nil {
			p.Gossip.Stop()
		}
		p.Client.Close()
		p.Server.Stop()
		p.Daemon.Stop()
	}
	if d.Proxy != nil {
		d.Proxy.Stop()
	}
	d.Net.Close()
	// Last: conn teardown above unblocks the deployment's goroutines
	// through their own error paths; stopping the scheduler then
	// releases any waiter still parked on its clock.
	if d.Sched != nil {
		d.Sched.Stop()
	}
}
