// Package simtest runs seeded end-to-end chaos scenarios over the full
// PeerHood Community stack: a deployment is built, a deterministic
// fault plan (loss, corruption, flaps, partitions, missed inquiries) is
// installed across the radio and transport substrates, traffic is
// driven through the community clients while the faults are active, and
// then the plan is lifted and the package verifies the stack heals —
// every node's dynamic-group view must reconverge to the fault-free
// oracle, and no operation may outlive its deadline at any point.
//
// Everything is a pure function of Scenario.Seed: the fault plan's
// draws, the peers' interests and mobility, and the traffic each peer
// generates, so a failing scenario replays exactly from its seed.
package simtest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/dtn"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/gossip"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/vtime"
)

// Defaults for Scenario knobs left zero.
const (
	defaultPeers       = 5
	defaultRounds      = 2
	defaultScale       = 1e-3
	defaultCallTimeout = 30 * time.Second
	defaultFaultWindow = time.Hour // generous: the fault phase always falls inside
	// defaultEndpointWindow replaces defaultFaultWindow when endpoint
	// knobs are set. Endpoint scenarios burn REAL seconds on call
	// deadlines (the robust-call floor is 2s real, thousands of modeled
	// seconds at chaos scale), so the modeled hour that comfortably
	// covers a link-fault phase can expire mid-phase here.
	defaultEndpointWindow   = 100 * time.Hour
	defaultReconvergeRounds = 40
	defaultMaxRetransmits   = 3
	// defaultStallFor must out-last the robust-call deadline in REAL
	// time, or "stalled" replies arrive before the deadline and the
	// gray failure degenerates into mere slowness. The deadline is
	// floored at 2s real regardless of scale, so at the default 1e-3
	// scale the stall must exceed 2000 modeled seconds; two modeled
	// hours (7.2s real) clears it with margin. Withheld messages ride
	// pump timers that abort with their connection, so the length is
	// free.
	defaultStallFor = 2 * time.Hour
)

// interestPool is the vocabulary scenarios draw member interests from;
// it is small so groups overlap and dynamic-group discovery has work
// to do.
var interestPool = []string{"football", "biking", "music", "chess"}

// mutationInterest is the fresh shared term MutateInterests scenarios
// add mid-run; it is outside interestPool so the mutation is always a
// real epoch-bumping edit, and shared so healing must form a brand-new
// deployment-wide group from state no cache has seen.
const mutationInterest = "origami"

// Scenario describes one seeded chaos run. The zero value of every
// fault knob disables that fault; Run fills structural defaults.
type Scenario struct {
	Name string
	Seed int64
	// Peers is the deployment size (default 5).
	Peers int

	// Loss is the per-message loss probability on every link.
	Loss float64
	// Corrupt is the per-message payload-corruption probability.
	Corrupt float64
	// Miss is the per-inquiry neighbor-miss probability.
	Miss float64
	// Flap is the per-window link-down probability.
	Flap float64
	// Partition splits the world into two halves for the fault phase.
	Partition bool
	// Churn gives every peer random-waypoint mobility during the fault
	// phase (frozen before reconvergence is checked).
	Churn bool

	// MutateInterests makes every peer add a shared fresh interest to
	// its live profile store halfway through the fault phase — behind
	// any NOT_MODIFIED-primed client caches. The reconvergence oracle
	// reads live stores, so healing must surface the mutation in every
	// group view; a cache that answers stale state keeps the run from
	// converging.
	MutateInterests bool

	// Stall is the per-session probability that a serving session
	// accepts requests but withholds replies — the gray failure a link
	// model cannot express.
	Stall float64
	// StallFor is how long stalled replies are withheld, in modeled
	// time (faults package default when zero).
	StallFor time.Duration
	// Slow is the per-window probability that a device serves at the
	// fault plane's slow factor.
	Slow float64
	// StalledPeers wedges the serving side of the first N peers for the
	// whole fault phase (scheduled whole-device stall windows).
	StalledPeers int
	// CrashedPeers crashes the last N peers for the whole fault phase;
	// lifting the plan is their restart, so reconvergence doubles as
	// the crash–restart recovery check.
	CrashedPeers int
	// Resilience arms every client's degradation machinery: per-peer
	// circuit breakers and hedged reads.
	Resilience bool

	// FaultWindow bounds the plan's active window in modeled time
	// (default one hour — the fault phase is healed explicitly, the
	// window just exercises the plumbing).
	FaultWindow time.Duration
	// Rounds is how many traffic rounds each peer drives while the
	// faults are active (default 2).
	Rounds int
	// Scale is the modeled-to-real latency scale (default 1e-3).
	Scale float64
	// CallTimeout is the per-operation deadline handed to RobustConn
	// (default 30s modeled).
	CallTimeout time.Duration
	// ReconvergeRounds bounds the healing loop (default 40).
	ReconvergeRounds int

	// Gossip attaches the epidemic discovery engine to every peer
	// (scenario.Builder.WithGossip). Gossip rounds are driven in
	// sequential lockstep — sorted member order, one exchange at a time
	// — after the concurrent traffic phase and during every healing
	// round, so the per-pair fault draws stay a pure function of the
	// seed and runs replay byte for byte. Reconvergence then requires
	// the gossip engine's group views to match the fault-free oracle in
	// addition to the fan-out clients'.
	Gossip bool
	// GossipAntiEntropyOnly disables rumor mongering entirely
	// (gossip.Config.DisableRumors): the run must converge on periodic
	// anti-entropy reconciliation alone, which is the degenerate state
	// a lossy world pushes the epidemic toward when every rumor dies
	// before spreading.
	GossipAntiEntropyOnly bool

	// DES runs the deployment on the discrete-event engine
	// (scenario.Builder.WithDES): virtual time advances by popping the
	// event queue instead of sleeping. Every fault knob and the whole
	// verification pipeline is engine-agnostic, so the same Scenario can
	// be run on both engines and compared.
	DES bool

	// DESWorkers overrides the event scheduler's executor count
	// (scenario.Builder.WithDESWorkers); 0 keeps the GOMAXPROCS
	// default. Observables are worker-invariant, so differential and
	// chaos scenarios pass at any setting.
	DESWorkers int

	// DTN attaches the store-carry-forward delivery engine to every
	// peer (scenario.Builder.WithDTN). Each peer originates a seeded
	// batch of addressed messages at the start of the fault phase; DTN
	// rounds are driven in sequential lockstep, under the active faults
	// and again during every healing round. After healing, every
	// message whose source and destination land in the same connected
	// component of the frozen radio graph — and whose TTL has not run
	// out — must be delivered, and every node's custody counters must
	// balance.
	DTN bool
	// DTNSocial selects the social (group-encounter) relay strategy
	// instead of epidemic spray.
	DTNSocial bool
	// DTNMessages is how many messages each peer originates (default 2).
	DTNMessages int
	// DTNTTL is the per-message TTL in rounds (default 64, comfortably
	// past the fault sweeps plus the healing budget).
	DTNTTL int
	// DTNCopyBudget caps spray copies per message (package default when
	// zero).
	DTNCopyBudget int
	// DTNBufferCap bounds each relay's volatile custody buffer (package
	// default when zero); small values force the eviction policy to
	// fire under load.
	DTNBufferCap int
	// DTNEviction picks the relay-buffer eviction policy.
	DTNEviction dtn.EvictionPolicy
}

func (s Scenario) withDefaults() Scenario {
	if s.Peers <= 0 {
		s.Peers = defaultPeers
	}
	if s.Rounds <= 0 {
		s.Rounds = defaultRounds
	}
	if s.Scale <= 0 {
		s.Scale = defaultScale
	}
	if s.CallTimeout <= 0 {
		s.CallTimeout = defaultCallTimeout
	}
	if s.FaultWindow <= 0 {
		if s.endpointFaulty() {
			s.FaultWindow = defaultEndpointWindow
		} else {
			s.FaultWindow = defaultFaultWindow
		}
	}
	if s.ReconvergeRounds <= 0 {
		s.ReconvergeRounds = defaultReconvergeRounds
	}
	if s.StallFor <= 0 {
		s.StallFor = defaultStallFor
	}
	if s.DTNMessages <= 0 {
		s.DTNMessages = defaultDTNMessages
	}
	if s.DTNTTL <= 0 {
		s.DTNTTL = defaultDTNTTL
	}
	if s.Name == "" {
		s.Name = fmt.Sprintf("seed-%d", s.Seed)
	}
	return s
}

// Faulty reports whether any fault knob is set.
func (s Scenario) Faulty() bool {
	return s.Loss > 0 || s.Corrupt > 0 || s.Miss > 0 || s.Flap > 0 || s.Partition || s.Churn ||
		s.endpointFaulty()
}

// endpointFaulty reports whether any endpoint-fault knob is set.
func (s Scenario) endpointFaulty() bool {
	return s.Stall > 0 || s.Slow > 0 || s.StalledPeers > 0 || s.CrashedPeers > 0
}

// Result is what one chaos run observed.
type Result struct {
	Scenario Scenario

	// Calls counts budget-measured client operations; CallErrors how
	// many of them failed (degradation, not violation — operations may
	// fail under faults, they may not hang or panic).
	Calls      int
	CallErrors int
	// MaxCallWall is the longest real wall time of one measured
	// operation; CallBudget is the bound it was held to.
	MaxCallWall time.Duration
	CallBudget  time.Duration

	// Reconverged reports whether every peer's group view matched the
	// fault-free oracle after healing, and in how many refresh rounds.
	Reconverged        bool
	RoundsToReconverge int

	// Faults is the plan's own accounting; Events its bounded trace.
	Faults faults.Counters
	Events []faults.Event
	// Net is the transport's accounting.
	Net netsim.Counters
	// Client sums every peer's community.ClientStats: fan-outs, cache
	// hits, NOT_MODIFIED rounds, breaker trips and hedges across the
	// deployment.
	Client community.ClientStats
	// Server sums every peer's community.ServerStats: admissions, shed
	// sessions, rate-limited requests and aborted slow writers.
	Server community.ServerStats
	// Gossip sums every peer's gossip.Stats when the epidemic engine is
	// attached: pushes sent/skipped, rumors died, anti-entropy runs and
	// records reconciled across the deployment.
	Gossip gossip.Stats

	// DTN sums every peer's dtn.Stats when the store-carry-forward
	// engine is attached: custody accepted/delivered/expired/evicted,
	// copies moved, exchange failures.
	DTN dtn.Stats
	// DTNDigest folds every node's custody trace digest in sorted
	// member order — the byte-for-byte replay witness for a whole
	// chaos run.
	DTNDigest uint64
	// DTNSent counts originated messages; DTNDelivered how many reached
	// their destination; DTNRequired how many the reachability oracle
	// demanded (same healed component, TTL not run out).
	DTNSent      int
	DTNDelivered int
	DTNRequired  int
	// DTNConverged reports whether every required message was delivered
	// after healing, and in how many sweeps.
	DTNConverged       bool
	DTNRoundsToDeliver int

	// Violations lists every invariant breach (empty on success).
	Violations []string
}

// Run executes one scenario and reports what happened. Errors are
// infrastructure failures (the world could not be built); invariant
// breaches land in Result.Violations instead.
func Run(s Scenario) (*Result, error) {
	s = s.withDefaults()
	res := &Result{Scenario: s}

	dep, plan, err := buildWorld(s)
	if err != nil {
		return nil, err
	}
	defer dep.Stop()

	env := dep.Env
	clock := env.Clock()
	res.CallBudget = callBudget(env, s.CallTimeout, dep.Sched != nil)
	ctx := context.Background()

	// Warm-up: one fault-free discovery round so every daemon knows its
	// neighborhood before the chaos starts.
	if err := dep.RefreshAll(ctx); err != nil {
		return nil, fmt.Errorf("simtest: warm-up: %w", err)
	}

	// Fault phase: install the plan on both substrates and drive
	// traffic through every client concurrently. DTN messages are
	// originated first — custody is taken before the chaos, carried
	// through it.
	dep.Net.SetFaults(plan)
	env.SetInquiryFaults(plan)
	var dtnMsgs []dtnMessage
	if s.DTN {
		setCrashedDTN(s, dep, true)
		msgs, err := sendDTNTraffic(s, dep)
		if err != nil {
			return nil, fmt.Errorf("simtest: originating DTN traffic: %w", err)
		}
		dtnMsgs = msgs
		res.DTNSent = len(dtnMsgs)
	}
	driveTraffic(ctx, s, dep, clock, res)

	// Gossip rounds run under the active faults too, but strictly after
	// the concurrent traffic (wg.Wait above) and in sequential lockstep:
	// each directed pair's connection sequence — what the fault plane
	// draws fates from — stays a pure function of the seed.
	if s.Gossip {
		for sweep := 0; sweep < gossipFaultSweeps; sweep++ {
			driveGossipSweep(ctx, dep)
		}
	}
	// DTN sweeps under fire: same sequential-lockstep discipline, so
	// the custody trace is a pure function of the seed.
	dtnSweeps := 0
	if s.DTN {
		for sweep := 0; sweep < dtnFaultSweeps; sweep++ {
			driveDTNSweep(ctx, dep)
			dtnSweeps++
		}
	}

	// Heal: lift the plan entirely and freeze mobility, so the
	// reconvergence oracle is computed over a static, fault-free world.
	dep.Net.SetFaults(nil)
	env.SetInquiryFaults(nil)
	if s.DTN {
		// Lifting the plan is the crashed peers' restart: volatile relay
		// custody is gone, sources and delivered state persist.
		restartCrashedDTN(s, dep)
	}
	if err := freezeMobility(dep); err != nil {
		return nil, fmt.Errorf("simtest: freezing mobility: %w", err)
	}

	res.Reconverged, res.RoundsToReconverge = reconverge(ctx, s, dep)
	if !res.Reconverged {
		res.Violations = append(res.Violations,
			fmt.Sprintf("group views did not reconverge to the oracle within %d rounds", s.ReconvergeRounds))
	}

	if s.DTN {
		res.DTNConverged, res.DTNRoundsToDeliver = dtnConverge(ctx, s, dep, dtnMsgs, &dtnSweeps, res)
	}

	res.Faults = plan.Counters()
	res.Events = plan.Events()
	res.Net = dep.Net.Counters()
	for _, m := range dep.Members() {
		res.Client.Add(dep.MustPeer(m).Client.Stats())
		res.Server.Add(dep.MustPeer(m).Server.Stats())
		if g := dep.MustPeer(m).Gossip; g != nil {
			res.Gossip.Add(g.Stats())
		}
		if n := dep.MustPeer(m).DTN; n != nil {
			st := n.Stats()
			res.DTN.Add(st)
			if !st.CustodyBalanced() {
				res.Violations = append(res.Violations,
					fmt.Sprintf("peer %s: DTN custody counters unbalanced: %+v", m, st))
			}
			res.DTNDigest = res.DTNDigest*1099511628211 ^ n.TraceDigest()
		}
	}
	return res, nil
}

// gossipFaultSweeps is how many sequential gossip sweeps run while the
// fault plan is active: enough for rumors to spread (and die) under
// fire, before healing hands convergence to the reconverge loop.
const gossipFaultSweeps = 4

// driveGossipSweep runs one gossip round on every peer in sorted
// member order, one at a time. Each Round fully settles its exchanges
// (the protocol's closing acks guarantee the partner applied the
// frames) before the next peer starts, which keeps the whole epidemic
// schedule deterministic.
func driveGossipSweep(ctx context.Context, dep *scenario.Deployment) {
	for _, m := range dep.Members() {
		if g := dep.MustPeer(m).Gossip; g != nil {
			g.Round(ctx)
		}
	}
}

// dtnFaultSweeps is how many sequential DTN rounds run while the
// fault plan is active: enough for custody to spread onto relays (and
// for copies to strand on links the faults then cut), before healing
// hands delivery to the convergence loop.
const dtnFaultSweeps = 4

// Defaults for the DTN knobs left zero.
const (
	defaultDTNMessages = 2
	// defaultDTNTTL comfortably outlasts the fault sweeps plus the
	// healing budget, so matrix messages only expire when a scenario
	// shortens it on purpose.
	defaultDTNTTL = 64
)

// dtnMessage tracks one originated message through a chaos run.
type dtnMessage struct {
	ID        string
	Src, Dst  ids.MemberID
	TTL       int
	SentSweep int
}

// driveDTNSweep runs one DTN round on every peer in sorted member
// order, one at a time — the same lockstep discipline as gossip, so
// contact order and fault draws replay exactly from the seed.
func driveDTNSweep(ctx context.Context, dep *scenario.Deployment) {
	for _, m := range dep.Members() {
		if n := dep.MustPeer(m).DTN; n != nil {
			n.Round(ctx)
		}
	}
}

// sendDTNTraffic originates each peer's seeded message batch. Sends
// are local custody operations (the outbox takes the message), so they
// succeed regardless of the active faults — carrying the message
// through them is the engine's job.
func sendDTNTraffic(s Scenario, dep *scenario.Deployment) ([]dtnMessage, error) {
	members := dep.Members()
	rng := rand.New(rand.NewSource(s.Seed ^ 0x64746e))
	var out []dtnMessage
	for i, m := range members {
		peer := dep.MustPeer(m)
		if peer.DTN == nil {
			continue
		}
		for k := 0; k < s.DTNMessages; k++ {
			dst := members[(i+1+rng.Intn(len(members)-1))%len(members)]
			dstDev := dep.MustPeer(dst).Daemon.Device()
			payload := []byte(fmt.Sprintf("dtn %s->%s #%d", m, dst, k))
			id, err := peer.DTN.SendTTL(dstDev, payload, s.DTNTTL)
			if err != nil {
				// A crashed origin cannot accept local sends; that message
				// simply never exists.
				if s.CrashedPeers > 0 {
					continue
				}
				return nil, err
			}
			out = append(out, dtnMessage{ID: id, Src: m, Dst: dst, TTL: s.DTNTTL})
		}
	}
	return out, nil
}

// setCrashedDTN marks the crash-window peers' DTN nodes down while the
// fault plan holds them crashed; the radio/transport fault plane
// already makes them invisible, this keeps their local engine honest
// (no rounds, no sends).
func setCrashedDTN(s Scenario, dep *scenario.Deployment, down bool) {
	members := dep.Members()
	for i := 0; i < s.CrashedPeers && i < len(members); i++ {
		if n := dep.MustPeer(members[len(members)-1-i]).DTN; n != nil {
			n.SetDown(down)
		}
	}
}

// restartCrashedDTN is the crashed peers' reboot: volatile relay
// custody and encounter memory are dropped, then the node comes back
// up. Originated messages and delivered state survive, so post-heal
// delivery of everything unexpired stays provable.
func restartCrashedDTN(s Scenario, dep *scenario.Deployment) {
	members := dep.Members()
	for i := 0; i < s.CrashedPeers && i < len(members); i++ {
		if n := dep.MustPeer(members[len(members)-1-i]).DTN; n != nil {
			n.DropVolatile()
			n.SetDown(false)
		}
	}
}

// dtnComponents computes connected components of the healed, frozen
// radio graph — the analytic reachability oracle: a store-carry-
// forward path exists between two members iff they share a component.
func dtnComponents(dep *scenario.Deployment) map[ids.MemberID]int {
	members := dep.Members()
	byDevice := make(map[ids.DeviceID]ids.MemberID, len(members))
	for _, m := range members {
		byDevice[dep.MustPeer(m).Daemon.Device()] = m
	}
	comp := make(map[ids.MemberID]int, len(members))
	next := 0
	for _, m := range members {
		if _, seen := comp[m]; seen {
			continue
		}
		next++
		queue := []ids.MemberID{m}
		comp[m] = next
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			dev := dep.MustPeer(cur).Daemon.Device()
			for _, nd := range dep.Env.Neighbors(dev, radio.Bluetooth) {
				om, ok := byDevice[nd]
				if !ok {
					continue
				}
				if _, seen := comp[om]; !seen {
					comp[om] = next
					queue = append(queue, om)
				}
			}
		}
	}
	return comp
}

// dtnConverge drives healing DTN sweeps until every required message —
// source and destination in the same healed component, TTL not yet run
// out — is delivered, or the round budget is spent. Undelivered
// required messages are invariant breaches.
func dtnConverge(ctx context.Context, s Scenario, dep *scenario.Deployment, msgs []dtnMessage, sweeps *int, res *Result) (bool, int) {
	comp := dtnComponents(dep)
	for round := 1; round <= s.ReconvergeRounds; round++ {
		driveDTNSweep(ctx, dep)
		*sweeps++
		allDone := true
		delivered := 0
		for _, msg := range msgs {
			if dep.MustPeer(msg.Dst).DTN.Consumed(msg.ID) {
				delivered++
				continue
			}
			if *sweeps-msg.SentSweep >= msg.TTL {
				continue // expired everywhere: exempt by TTL policy
			}
			if comp[msg.Src] != comp[msg.Dst] {
				continue // unreachable in the healed world: exempt
			}
			allDone = false
		}
		if allDone {
			res.DTNDelivered = delivered
			required := 0
			for _, msg := range msgs {
				if comp[msg.Src] == comp[msg.Dst] && *sweeps-msg.SentSweep < msg.TTL {
					required++
				}
			}
			res.DTNRequired = required
			return true, round
		}
	}
	delivered := 0
	for _, msg := range msgs {
		if dep.MustPeer(msg.Dst).DTN.Consumed(msg.ID) {
			delivered++
			continue
		}
		if *sweeps-msg.SentSweep >= msg.TTL || comp[msg.Src] != comp[msg.Dst] {
			continue
		}
		res.Violations = append(res.Violations,
			fmt.Sprintf("DTN message %s (%s→%s) reachable and unexpired but undelivered after %d healing sweeps",
				msg.ID, msg.Src, msg.Dst, s.ReconvergeRounds))
	}
	res.DTNDelivered = delivered
	return false, s.ReconvergeRounds
}

// buildWorld assembles the deployment and the fault plan for a
// scenario. Peers stand on a circle well inside Bluetooth range;
// churn replaces the static placement with seeded random-waypoint
// movement in a box around the circle.
func buildWorld(s Scenario) (*scenario.Deployment, *faults.Plan, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	b := scenario.NewBuilder().WithScale(vtime.NewScale(s.Scale)).WithSeed(s.Seed)
	if s.DES {
		b.WithDES(0)
		if s.DESWorkers > 0 {
			b.WithDESWorkers(s.DESWorkers)
		}
	}
	devices := make([]ids.DeviceID, 0, s.Peers)
	for i := 0; i < s.Peers; i++ {
		member := ids.MemberID(fmt.Sprintf("m%02d", i))
		spec := scenario.PeerSpec{
			Member:    member,
			Position:  circlePos(i, s.Peers),
			Interests: pickInterests(rng, i),
		}
		if s.Churn {
			region := geo.NewRect(geo.Pt(14, 14), geo.Pt(26, 26))
			spec.Mobility = mobility.NewRandomWaypoint(region, 0.5, 2.0, time.Second, s.Seed+int64(i)*7919)
		}
		b.AddPeer(spec)
		devices = append(devices, ids.DeviceID("dev-"+string(member)))
	}
	if s.Resilience {
		// Hedging wants a primed latency window; a low sample gate lets
		// the short chaos workloads reach it.
		b.WithResilience(community.ResilienceOptions{Hedge: true, HedgeMinSamples: 8})
	}
	if s.DTN {
		cfg := dtn.Config{
			CopyBudget: s.DTNCopyBudget,
			BufferCap:  s.DTNBufferCap,
			TTLRounds:  s.DTNTTL,
			Eviction:   s.DTNEviction,
		}
		if s.DTNSocial {
			cfg.Strategy = dtn.Social
		}
		b.WithDTN(cfg)
	}
	if s.Gossip {
		cfg := gossip.Config{DisableRumors: s.GossipAntiEntropyOnly}
		if s.GossipAntiEntropyOnly {
			// With the push phase suppressed, reconciliation is the only
			// propagation path; run it every other round so convergence
			// lands inside the healing budget.
			cfg.AEEvery = 2
		}
		b.WithGossip(cfg)
	}
	dep, err := b.Build()
	if err != nil {
		return nil, nil, err
	}

	plan := faults.New(s.Seed).
		SetLink(faults.LinkProfile{
			Loss:           s.Loss,
			MaxRetransmits: defaultMaxRetransmits,
			Corrupt:        s.Corrupt,
			FlapRate:       s.Flap,
		}).
		SetRadio(faults.RadioProfile{Miss: s.Miss}).
		SetEndpoints(faults.EndpointProfile{
			StallRate: s.Stall,
			StallFor:  s.StallFor,
			SlowRate:  s.Slow,
		}).
		SetActiveWindow(s.FaultWindow)
	for i := 0; i < s.StalledPeers && i < len(devices); i++ {
		plan = plan.AddStall(faults.StallWindow{Device: devices[i], Start: 0, End: s.FaultWindow})
	}
	for i := 0; i < s.CrashedPeers && i < len(devices); i++ {
		plan = plan.AddCrash(faults.CrashWindow{Device: devices[len(devices)-1-i], Start: 0, End: s.FaultWindow})
	}
	if s.Partition {
		half := len(devices) / 2
		plan = plan.AddPartition(faults.PartitionWindow{
			GroupA: devices[:half],
			GroupB: devices[half:],
			Start:  0,
			End:    s.FaultWindow,
		})
	}
	return dep, plan, nil
}

// circlePos places peer i of n on a radius-4 circle around (20, 20):
// every pairwise distance is under 8 m, inside the 10 m Bluetooth
// range, so the fault-free world is fully connected.
func circlePos(i, n int) geo.Point {
	angle := 2 * math.Pi * float64(i) / float64(n)
	return geo.Pt(20+4*math.Cos(angle), 20+4*math.Sin(angle))
}

// pickInterests gives peer i a guaranteed interest from the pool (so
// overlap exists) plus an optional second draw.
func pickInterests(rng *rand.Rand, i int) []string {
	out := []string{interestPool[i%len(interestPool)]}
	if rng.Intn(2) == 1 {
		second := interestPool[rng.Intn(len(interestPool))]
		if second != out[0] {
			out = append(out, second)
		}
	}
	return out
}

// callBudget is the bound, on the environment's clock, one measured
// client operation is held to: client operations chain at most a
// handful of sequential robust calls (resolve, check, the operation
// itself), each bounded by the RobustConn deadline. On the goroutine
// engine the peerhood layer floors that deadline at 2s real so latency
// scales don't turn scheduler jitter into timeouts; the DES clock has
// no jitter and keeps the modeled deadline.
func callBudget(env *radio.Environment, modeled time.Duration, des bool) time.Duration {
	const floor = 2 * time.Second
	d := env.Scale().ToReal(modeled)
	if d < floor && !des {
		d = floor
	}
	return 4*d + time.Second
}

// driveTraffic runs every peer's seeded workload concurrently and
// merges the observations into res.
func driveTraffic(ctx context.Context, s Scenario, dep *scenario.Deployment, clock vtime.Clock, res *Result) {
	members := dep.Members()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, m := range members {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			peer := dep.MustPeer(m)
			rng := rand.New(rand.NewSource(s.Seed + 104729*int64(i+1)))
			for round := 0; round < s.Rounds; round++ {
				// Discovery is not budget-measured: its duration is set
				// by inquiry windows, not by RobustConn deadlines.
				_ = peer.Daemon.RefreshNow(ctx)

				// Mid-phase mutation: edit the live store behind any
				// conditional caches primed by the earlier rounds.
				if s.MutateInterests && round == s.Rounds/2 {
					_ = peer.Store.AddInterest(m, mutationInterest)
				}

				ops := []func() error{
					func() error { _, err := peer.Client.RefreshGroups(ctx); return err },
					func() error { _, err := peer.Client.OnlineMembers(ctx); return err },
					func() error {
						to := members[rng.Intn(len(members))]
						if to == m {
							return nil
						}
						return peer.Client.SendMessage(ctx, to, "chaos", fmt.Sprintf("r%d from %s", round, m))
					},
				}
				for _, op := range ops {
					start := clock.Now()
					err := op()
					wall := clock.Now().Sub(start)
					mu.Lock()
					res.Calls++
					if err != nil {
						res.CallErrors++
					}
					if wall > res.MaxCallWall {
						res.MaxCallWall = wall
					}
					if wall > res.CallBudget {
						res.Violations = append(res.Violations,
							fmt.Sprintf("peer %s round %d: operation took %v, budget %v", m, round, wall, res.CallBudget))
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
}

// freezeMobility pins every device at its current position so the
// oracle and the daemons see the same static world.
func freezeMobility(dep *scenario.Deployment) error {
	for _, m := range dep.Members() {
		dev := dep.MustPeer(m).Daemon.Device()
		pos, err := dep.Env.Position(dev)
		if err != nil {
			return err
		}
		if err := dep.Env.SetModel(dev, mobility.Static{At: pos}); err != nil {
			return err
		}
	}
	return nil
}

// groupView is the canonical comparison form of a node's dynamic
// groups: interest → sorted member IDs.
type groupView map[string][]string

func canonical(groups []core.Group) groupView {
	out := make(groupView, len(groups))
	for _, g := range groups {
		ms := make([]string, 0, len(g.Members))
		for _, m := range g.Members {
			ms = append(ms, string(m.ID))
		}
		sort.Strings(ms)
		out[g.Interest] = ms
	}
	return out
}

// oracleView computes what a peer's groups must be in the healed
// world: DiscoverGroups over its actual radio neighbors, with every
// member's interests read from their live profile store.
func oracleView(dep *scenario.Deployment, m ids.MemberID, byDevice map[ids.DeviceID]ids.MemberID) (groupView, error) {
	self, err := liveMember(dep, m)
	if err != nil {
		return nil, err
	}
	var nearby []core.Member
	for _, dev := range dep.Env.Neighbors(self.Device, radio.Bluetooth) {
		other, ok := byDevice[dev]
		if !ok {
			continue
		}
		om, err := liveMember(dep, other)
		if err != nil {
			return nil, err
		}
		nearby = append(nearby, om)
	}
	return canonical(core.DiscoverGroups(self, nearby, nil)), nil
}

// liveMember snapshots a peer as a core.Member with its store's
// current interests.
func liveMember(dep *scenario.Deployment, m ids.MemberID) (core.Member, error) {
	peer := dep.MustPeer(m)
	p, err := peer.Store.ActiveProfile()
	if err != nil {
		return core.Member{}, err
	}
	return core.Member{Device: peer.Daemon.Device(), ID: m, Interests: p.Interests}, nil
}

// reconvergePause is the real-time wait between failed healing rounds.
// It exists for the breaker scenarios: an open breaker's real-time
// floor is half a second, and without the pause a fast fail-fast loop
// would burn its whole round budget before any half-open probe could
// fire.
const reconvergePause = 25 * time.Millisecond

// reconverge refreshes every node until each one's group view matches
// the oracle, or the round budget runs out.
func reconverge(ctx context.Context, s Scenario, dep *scenario.Deployment) (bool, int) {
	members := dep.Members()
	byDevice := make(map[ids.DeviceID]ids.MemberID, len(members))
	for _, m := range members {
		byDevice[dep.MustPeer(m).Daemon.Device()] = m
	}
	clock := dep.Env.Clock()
	for round := 1; round <= s.ReconvergeRounds; round++ {
		if round > 1 {
			clock.Sleep(reconvergePause)
		}
		for _, m := range members {
			peer := dep.MustPeer(m)
			_ = peer.Daemon.RefreshNow(ctx)
			_, _ = peer.Client.RefreshGroups(ctx)
		}
		// One sequential gossip sweep per healing round: the epidemic
		// converges alongside the fan-out clients and must reach the
		// same oracle.
		if s.Gossip {
			driveGossipSweep(ctx, dep)
		}
		converged := true
		for _, m := range members {
			want, err := oracleView(dep, m, byDevice)
			if err != nil {
				converged = false
				break
			}
			got := canonical(dep.MustPeer(m).Client.Groups())
			if !reflect.DeepEqual(got, want) {
				converged = false
				break
			}
			if g := dep.MustPeer(m).Gossip; g != nil {
				g.Refresh()
				if !reflect.DeepEqual(canonical(g.Groups()), want) {
					converged = false
					break
				}
			}
		}
		if converged {
			return true, round
		}
	}
	return false, s.ReconvergeRounds
}

// Matrix generates n seeded scenarios sweeping the fault axes — loss ×
// corruption × missed inquiries × flaps × partition × churn × size —
// deterministically from a base seed.
func Matrix(n int, baseSeed int64) []Scenario {
	losses := []float64{0, 0.05, 0.15, 0.3}
	corrupts := []float64{0, 0.1}
	misses := []float64{0, 0.2}
	flaps := []float64{0, 0.04}
	out := make([]Scenario, 0, n)
	for i := 0; len(out) < n; i++ {
		s := Scenario{
			Seed:      baseSeed + int64(i)*1009,
			Peers:     4 + (i%3)*2, // 4, 6, 8
			Loss:      losses[i%len(losses)],
			Corrupt:   corrupts[(i/4)%len(corrupts)],
			Miss:      misses[(i/8)%len(misses)],
			Flap:      flaps[(i/16)%len(flaps)],
			Partition: i%3 == 1,
			Churn:     i%2 == 1,
		}
		s.Name = fmt.Sprintf("chaos-%02d-l%02.0f-c%02.0f-m%02.0f-f%02.0f-p%d-ch%d-n%d",
			i, s.Loss*100, s.Corrupt*100, s.Miss*100, s.Flap*100, b2i(s.Partition), b2i(s.Churn), s.Peers)
		out = append(out, s)
	}
	return out
}

// EndpointMatrix generates n seeded scenarios composing endpoint
// faults — per-session stalls, slow devices, wedged peers, crash–
// restart churn — with the link-level axes, all with client resilience
// armed: the breakers and hedges must keep every run inside its call
// budget and reconverging after the heal.
func EndpointMatrix(n int, baseSeed int64) []Scenario {
	stalls := []float64{0, 0.15, 0.3}
	slows := []float64{0, 0.2}
	losses := []float64{0, 0.05}
	flaps := []float64{0, 0.04}
	out := make([]Scenario, 0, n)
	for i := 0; len(out) < n; i++ {
		s := Scenario{
			Seed:         baseSeed + int64(i)*2003,
			Peers:        4 + (i%2)*2, // 4, 6
			Stall:        stalls[i%len(stalls)],
			Slow:         slows[(i/3)%len(slows)],
			Loss:         losses[(i/6)%len(losses)],
			Flap:         flaps[(i/12)%len(flaps)],
			StalledPeers: i % 2,       // every odd scenario wedges one peer
			CrashedPeers: (i / 2) % 2, // every other pair crash-restarts one
			Partition:    i%5 == 4,
			Resilience:   true,
		}
		s.Name = fmt.Sprintf("endpoint-%02d-st%02.0f-sl%02.0f-l%02.0f-f%02.0f-w%d-cr%d-p%d-n%d",
			i, s.Stall*100, s.Slow*100, s.Loss*100, s.Flap*100,
			s.StalledPeers, s.CrashedPeers, b2i(s.Partition), s.Peers)
		out = append(out, s)
	}
	return out
}

// GossipMatrix generates n seeded link-fault scenarios with the
// epidemic engine running beside the fan-out clients: both must
// reconverge to the same fault-free oracle after healing. Every fourth
// scenario suppresses rumor pushes entirely (anti-entropy only), so
// the matrix continuously proves the reconciliation path converges on
// its own under loss, corruption and partitions.
func GossipMatrix(n int, baseSeed int64) []Scenario {
	losses := []float64{0, 0.05, 0.15, 0.3}
	corrupts := []float64{0, 0.1}
	flaps := []float64{0, 0.04}
	out := make([]Scenario, 0, n)
	for i := 0; len(out) < n; i++ {
		s := Scenario{
			Seed:                  baseSeed + int64(i)*3001,
			Peers:                 4 + (i%3)*2, // 4, 6, 8
			Loss:                  losses[i%len(losses)],
			Corrupt:               corrupts[(i/4)%len(corrupts)],
			Flap:                  flaps[(i/8)%len(flaps)],
			Partition:             i%3 == 1,
			Gossip:                true,
			GossipAntiEntropyOnly: i%4 == 3,
		}
		s.Name = fmt.Sprintf("gossip-%02d-l%02.0f-c%02.0f-f%02.0f-p%d-ae%d-n%d",
			i, s.Loss*100, s.Corrupt*100, s.Flap*100, b2i(s.Partition), b2i(s.GossipAntiEntropyOnly), s.Peers)
		out = append(out, s)
	}
	return out
}

// DTNMatrix generates n seeded scenarios with the store-carry-forward
// engine running: loss × corruption × flaps × partitions ×
// crash-restarts × relay strategy × eviction policy × tight buffers.
// Every run must deliver every reachable unexpired message after
// healing and keep custody counters balanced on every node. Social
// scenarios keep churn off so the healed world is the fully-connected
// circle (social relay guarantees direct-contact delivery there;
// epidemic guarantees delivery on any connected graph).
func DTNMatrix(n int, baseSeed int64) []Scenario {
	losses := []float64{0, 0.05, 0.15, 0.3}
	corrupts := []float64{0, 0.1}
	flaps := []float64{0, 0.04}
	evictions := []dtn.EvictionPolicy{dtn.EvictOldest, dtn.EvictLargest, dtn.EvictSocialTail}
	out := make([]Scenario, 0, n)
	for i := 0; len(out) < n; i++ {
		social := i%2 == 1
		s := Scenario{
			Seed:         baseSeed + int64(i)*4013,
			Peers:        4 + (i%3)*2, // 4, 6, 8
			Loss:         losses[i%len(losses)],
			Corrupt:      corrupts[(i/4)%len(corrupts)],
			Flap:         flaps[(i/8)%len(flaps)],
			Partition:    i%3 == 1,
			Churn:        !social && i%5 == 2,
			CrashedPeers: (i / 2) % 2,
			DTN:          true,
			DTNSocial:    social,
			DTNEviction:  evictions[i%len(evictions)],
		}
		if i%4 == 2 {
			// Tight relay buffers: eviction must fire and stay accounted.
			s.DTNBufferCap = 2
		}
		s.Name = fmt.Sprintf("dtn-%02d-l%02.0f-c%02.0f-f%02.0f-p%d-cr%d-%s-%s-n%d",
			i, s.Loss*100, s.Corrupt*100, s.Flap*100, b2i(s.Partition), s.CrashedPeers,
			strategyTag(s.DTNSocial), s.DTNEviction, s.Peers)
		out = append(out, s)
	}
	return out
}

func strategyTag(social bool) string {
	if social {
		return "social"
	}
	return "epidemic"
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
