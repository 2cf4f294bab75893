package harness

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/gossip"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// This file is the epidemic-dissemination scaling experiment: the same
// neighborhood-knowledge goal — every device holding the current
// interest record of every radio neighbor — reached two ways. The
// fan-out mode re-polls every neighbor's full record each round, the
// classic periodic re-advertisement. The gossip mode runs the
// internal/gossip engine: greedy rumor pushes that die under redundant
// acks, bloom digests that skip no-op pushes, and periodic
// anti-entropy. Fan-out covers the neighborhood in one round but pays
// the full neighborhood cost every round forever; gossip spends a few
// convergence rounds and then quiesces to amortized digest traffic.
// Each run therefore measures two figures: the rounds to convergence,
// and the steady wire bytes per round once converged — the committed
// BENCH_gossip.json claim is that the second is a fraction of
// fan-out's at a thousand devices and beyond. Both modes run on the
// sweep kernel (sweep.go), where a discrete-event run replays from its
// seed.
//
// The world is a field of Bluetooth-scale proximity clusters (the
// paper's piconet communities): 16 devices per cluster, clusters far
// outside each other's radio range. That is the regime the epidemic
// engine serves — group state spreads and settles inside each
// neighborhood — and it is what lets the per-cluster rumor death and
// digest amortization show up as flat per-device steady cost while
// the fan-out baseline keeps re-shipping every neighbor's full record
// every round at any world size.

// GossipScalePoint is one measured run of one mode at one world size.
type GossipScalePoint struct {
	Devices int
	// Mode is "fanout" or "gossip".
	Mode string
	// Engine is "goroutine" or "des".
	Engine string
	// Rounds is how many sweeps were driven in total (convergence
	// phase plus the measured steady tail).
	Rounds int
	// ConvergedRound is the first 1-based round after which every
	// device held a current record for each of its radio neighbors.
	ConvergedRound int
	// Wall is the real wall-clock cost of the whole run.
	Wall time.Duration
	// ConvergeBytes is the payload bytes delivered up to and including
	// the converging round — the epidemic's one-time spreading cost.
	ConvergeBytes uint64
	// SteadyBytesPerRound is the delivered payload bytes per round
	// averaged over the measured tail after convergence — the figure
	// the benchmark floors pin.
	SteadyBytesPerRound float64
	// Bytes and Messages are the transport totals over the whole run.
	Bytes    uint64
	Messages uint64
	// Stats aggregates the gossip engine's counters (zero in fan-out
	// mode); PushesSkipped and RumorsDied rising while the steady
	// bytes stay low is the quiescence evidence.
	Stats gossip.Stats
}

// GossipScaleConfig parameterizes the sweep.
type GossipScaleConfig struct {
	// Seed drives placement, interests and the per-node gossip rngs.
	Seed int64
	// MaxRounds bounds the convergence phase (default 32).
	MaxRounds int
	// MeasureRounds is the steady tail measured after convergence
	// (default 4 — one full anti-entropy period at the default knobs).
	MeasureRounds int
	// Engine selects the transport.
	Engine
	// Gossip overrides the engine knobs (zero = package defaults).
	Gossip gossip.Config
}

func (c GossipScaleConfig) withDefaults() GossipScaleConfig {
	if c.MaxRounds <= 0 {
		c.MaxRounds = 32
	}
	if c.MeasureRounds <= 0 {
		c.MeasureRounds = 4
	}
	return c
}

// RunGossipScale measures both modes at each world size.
func RunGossipScale(cfg GossipScaleConfig, deviceCounts []int) ([]GossipScalePoint, error) {
	cfg = cfg.withDefaults()
	out := make([]GossipScalePoint, 0, 2*len(deviceCounts))
	for _, n := range deviceCounts {
		for _, mode := range []string{"fanout", "gossip"} {
			p, err := RunGossipScaleMode(cfg, n, mode)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// RunGossipScaleMode measures a single mode at one world size (for
// benchmarks that pin each mode as its own benchmark case).
func RunGossipScaleMode(cfg GossipScaleConfig, n int, mode string) (GossipScalePoint, error) {
	cfg = cfg.withDefaults()
	if n < 2 {
		return GossipScalePoint{}, fmt.Errorf("harness: gossip scale: need at least two devices, got %d", n)
	}
	p, err := runGossipScalePoint(cfg, n, mode)
	if err != nil {
		return GossipScalePoint{}, fmt.Errorf("harness: gossip scale %s point %d: %w", mode, n, err)
	}
	return p, nil
}

// gossipScaleWorld is one built world: transport, device list, the
// epoch-0 neighborhoods (the world is static, so every round shares
// the one snapshot) and the mode's per-device drivers.
type gossipScaleWorld struct {
	net     *netsim.Network
	devs    []ids.DeviceID
	neigh   [][]ids.DeviceID
	drivers []driver
}

// gossipScaleMode is one mode over the two-phase measurement: converged
// reports full neighborhood coverage, finish collects mode-specific
// counters and stops serving.
type gossipScaleMode interface {
	converged() bool
	finish(point *GossipScalePoint)
}

func runGossipScalePoint(cfg GossipScaleConfig, n int, mode string) (GossipScalePoint, error) {
	seed := cfg.Seed + int64(n)
	s := newSweep(cfg.Engine, seed, vtime.NewScale(1e-6))
	defer s.net.Close()
	devs, err := placeGossipClusters(s.env, n, seed)
	if err != nil {
		return GossipScalePoint{}, err
	}

	// Pin every neighborhood to the epoch-0 snapshot once: the world is
	// static, and per-round un-pinned queries would each rebuild the
	// O(n) world state (the radio package's query-epoch rule).
	w := &gossipScaleWorld{net: s.net, devs: devs, neigh: make([][]ids.DeviceID, n)}
	for i, dev := range devs {
		w.neigh[i] = s.env.NeighborsAt(dev, radio.Bluetooth, 0)
	}

	var m gossipScaleMode
	switch mode {
	case "fanout":
		m, err = newGossipScaleFanout(w)
	case "gossip":
		m, err = newGossipScaleGossip(cfg, w)
	default:
		err = fmt.Errorf("unknown mode %q", mode)
	}
	if err != nil {
		return GossipScalePoint{}, err
	}
	round := func() { s.round(devs, w.drivers, 0) }

	point := GossipScalePoint{Devices: n, Mode: mode, Engine: cfg.name()}
	sw := vtime.NewStopwatch(vtime.Real(), vtime.Identity())
	for r := 1; r <= cfg.MaxRounds; r++ {
		round()
		point.Rounds = r
		if m.converged() {
			point.ConvergedRound = r
			break
		}
	}
	if point.ConvergedRound == 0 {
		m.finish(&point)
		return GossipScalePoint{}, fmt.Errorf("never converged in %d rounds", cfg.MaxRounds)
	}
	// A short settle phase before the measured tail: right at
	// convergence a few hot counters are still draining their last
	// redundant pushes; the steady figure is the state after the
	// feedback has killed them. Fan-out is round-invariant, so the
	// settle is a no-op for the baseline.
	for i := 0; i < gossipScaleSettleRounds; i++ {
		round()
		point.Rounds++
	}
	point.ConvergeBytes = s.net.Counters().BytesDelivered
	for i := 0; i < cfg.MeasureRounds; i++ {
		round()
		point.Rounds++
	}
	m.finish(&point)
	point.Wall = sw.Elapsed()
	c := s.net.Counters()
	point.Bytes = c.BytesDelivered
	point.Messages = c.MessagesDelivered
	point.SteadyBytesPerRound = float64(point.Bytes-point.ConvergeBytes) / float64(cfg.MeasureRounds)
	return point, nil
}

// gossipScaleSettleRounds separates the converging round from the
// measured steady tail (see runGossipScalePoint).
const gossipScaleSettleRounds = 2

// placeGossipClusters lays n devices out as proximity clusters of 16:
// members jittered inside a 4 m box (everyone in Bluetooth range of
// the whole cluster), cluster origins 40 m apart on a grid (no
// cross-cluster radio path).
func placeGossipClusters(env *radio.Environment, n int, seed int64) ([]ids.DeviceID, error) {
	const clusterSize = 16
	const spacing = 40.0
	clusters := (n + clusterSize - 1) / clusterSize
	cols := int(math.Ceil(math.Sqrt(float64(clusters))))
	rng := rand.New(rand.NewSource(seed))
	devs := make([]ids.DeviceID, n)
	for i := range devs {
		devs[i] = ids.DeviceIDf("dev-%05d", i)
		c := i / clusterSize
		at := geo.Pt(
			float64(c%cols)*spacing+rng.Float64()*4,
			float64(c/cols)*spacing+rng.Float64()*4,
		)
		if err := env.Add(devs[i], mobility.Static{At: at}, radio.Bluetooth); err != nil {
			return nil, err
		}
	}
	return devs, nil
}

// gossipScaleRecord is device i's interest record; both modes ship the
// identical payload through the identical codec, so the byte curves
// compare dissemination strategies, not serialization tricks.
func gossipScaleRecord(devs []ids.DeviceID, i int) gossip.Record {
	return gossip.Record{
		Member:    ids.MemberID(devs[i]),
		Device:    devs[i],
		Epoch:     1,
		Interests: engineScaleInterests(i),
	}
}

// gossipScaleFanout is the baseline: every round, every device pulls
// each radio neighbor's full record — the periodic re-advertisement
// fan-out. It covers the neighborhood in round one and pays the
// identical full cost every round after. Each device's covered set is
// written only by its own round.
type gossipScaleFanout struct {
	w        *gossipScaleWorld
	covered  []map[ids.DeviceID]bool
	services []*netsim.Service
}

// fanoutPull is the fan-out baseline's request frame.
var fanoutPull = []byte("pull")

func newGossipScaleFanout(w *gossipScaleWorld) (*gossipScaleFanout, error) {
	d := &gossipScaleFanout{w: w, covered: make([]map[ids.DeviceID]bool, len(w.devs))}
	for i, dev := range w.devs {
		d.covered[i] = make(map[ids.DeviceID]bool, len(w.neigh[i]))
		frame := gossip.MarshalDelta(gossip.FrameDelta{From: dev, Records: []gossip.Record{gossipScaleRecord(w.devs, i)}})
		lis, err := w.net.Listen(dev, "adv")
		if err != nil {
			return nil, err
		}
		d.services = append(d.services, lis.Serve(func(ids.DeviceID, []byte) ([]byte, netsim.ServeStep) { return frame, nil }))
		w.drivers = append(w.drivers, &fanoutPuller{d: d, i: i})
	}
	return d, nil
}

func (d *gossipScaleFanout) converged() bool {
	for i, want := range d.w.neigh {
		for _, peer := range want {
			if !d.covered[i][peer] {
				return false
			}
		}
	}
	return true
}

func (d *gossipScaleFanout) finish(*GossipScalePoint) {
	for _, svc := range d.services {
		svc.Stop()
	}
}

// fanoutPuller is device i's fan-out round: one pull handshake per
// radio neighbor.
type fanoutPuller struct {
	d    *gossipScaleFanout
	i, j int
}

func (p *fanoutPuller) Round(ctx context.Context) {
	p.j = 0
	p.d.w.net.Round(ctx, p.d.w.devs[p.i], radio.Bluetooth, "adv", p.next)
}

func (p *fanoutPuller) RoundEvent(ctx *des.Ctx, then func(*des.Ctx)) {
	p.j = 0
	p.d.w.net.RoundEvent(ctx, p.d.w.devs[p.i], radio.Bluetooth, "adv", p.next, then)
}

// next draws the pull from the next neighbor; a failed pull just
// leaves the neighbor uncovered.
func (p *fanoutPuller) next() (netsim.Handshake, bool) {
	neigh := p.d.w.neigh[p.i]
	if p.j >= len(neigh) {
		return netsim.Handshake{}, false
	}
	p.j++
	return netsim.Handshake{To: neigh[p.j-1], Open: fanoutPull, Step: func(resp []byte, err error) ([]byte, netsim.Step) {
		if err == nil {
			if delta, err := gossip.UnmarshalDelta(resp); err == nil && len(delta.Records) == 1 {
				p.d.covered[p.i][delta.Records[0].Device] = true
			}
		}
		return nil, nil
	}}, true
}

// gossipScaleGossip drives the epidemic engine.
type gossipScaleGossip struct {
	w     *gossipScaleWorld
	nodes []*gossip.Node
}

func newGossipScaleGossip(cfg GossipScaleConfig, w *gossipScaleWorld) (*gossipScaleGossip, error) {
	d := &gossipScaleGossip{w: w}
	for i, dev := range w.devs {
		node, err := gossip.NewNode(gossip.Params{
			Device:    dev,
			Member:    ids.MemberID(dev),
			Self:      func() gossip.Record { return gossipScaleRecord(w.devs, i) },
			Neighbors: func() []ids.DeviceID { return w.neigh[i] },
			Net:       w.net,
			Seed:      cfg.Seed,
			Config:    cfg.Gossip,
		})
		if err == nil {
			err = node.Start()
		}
		if err != nil {
			return nil, err
		}
		d.nodes = append(d.nodes, node)
		w.drivers = append(w.drivers, node)
	}
	return d, nil
}

func (d *gossipScaleGossip) converged() bool {
	for i, node := range d.nodes {
		for _, peer := range d.w.neigh[i] {
			if !node.HasRecord(peer, 1) {
				return false
			}
		}
	}
	return true
}

func (d *gossipScaleGossip) finish(point *GossipScalePoint) {
	for _, node := range d.nodes {
		point.Stats.Add(node.Stats())
		node.Stop()
	}
}

// FormatGossipScale renders the series as a table.
func FormatGossipScale(points []GossipScalePoint) string {
	header := []string{"Devices", "Mode", "Engine", "Converged@", "Wall", "ConvergeBytes", "SteadyBytes/round", "Msgs", "PushSkip", "RumorsDied"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Devices),
			p.Mode,
			p.Engine,
			fmt.Sprintf("%d", p.ConvergedRound),
			p.Wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", p.ConvergeBytes),
			fmt.Sprintf("%.0f", p.SteadyBytesPerRound),
			fmt.Sprintf("%d", p.Messages),
			fmt.Sprintf("%d", p.Stats.PushesSkipped),
			fmt.Sprintf("%d", p.Stats.RumorsDied),
		})
	}
	return FormatTable(header, rows)
}
