package harness

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dtn"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// This file is the store-carry-forward delivery experiment: sparse
// mobility worlds where most device pairs never share a radio
// neighborhood and messages only cross the gaps by riding couriers.
// Two world shapes come from the paper's deployment settings:
//
//   - "bus": stops strung along a line, a handful of buses shuttling
//     the whole route — the classic rural-connectivity DTN topology.
//   - "campus": buildings on a grid with students walking circuits
//     between them — denser courier traffic, shorter gaps.
//
// Couriers move on a deterministic round-driven schedule (the harness
// teleports them between dwell points between the sweep kernel's
// contact rounds), so both transport engines see the identical contact
// sequence, and on the discrete-event engine a run replays from its
// seed. Each run measures the delivery ratio, the mean
// delivery latency in contact rounds, and the copies-per-delivered
// ratio — the committed BENCH_dtn.json claim is that the social
// (group-encounter) strategy delivers at a fraction of epidemic
// spray's copy cost, floored at 2x.

// DTNScalePoint is one measured run of one strategy in one world.
type DTNScalePoint struct {
	Devices int
	// World is "bus" or "campus".
	World string
	// Strategy is "epidemic" or "social".
	Strategy string
	// Engine is "goroutine" or "des".
	Engine string
	// Rounds is how many contact rounds were driven.
	Rounds int
	// Sent counts originated messages; Delivered how many reached
	// their destination before the run ended.
	Sent      int
	Delivered int
	// DeliveryRatio is Delivered/Sent.
	DeliveryRatio float64
	// MeanLatency is the mean rounds from origination to delivery,
	// over delivered messages.
	MeanLatency float64
	// CopiesSent counts every bundle copy that crossed a link;
	// CopiesPerDelivered is the headline cost figure.
	CopiesSent         uint64
	CopiesPerDelivered float64
	// Wall is the real wall-clock cost of the whole run.
	Wall time.Duration
	// Stats aggregates every node's custody counters.
	Stats dtn.Stats
}

// DTNScaleConfig parameterizes the sweep.
type DTNScaleConfig struct {
	// Seed drives placement, traffic and the per-node rngs.
	Seed int64
	// Rounds is the contact-round budget after warm-up (default 48).
	Rounds int
	// Warmup is how many courier tour rounds run before any traffic,
	// letting the social strategy's encounter memory prime (default:
	// one full tour).
	Warmup int
	// Messages is the originated message count (default max(8, n/8)).
	Messages int
	// Engine selects the transport.
	Engine
	// DTN overrides the engine knobs; Strategy is set per mode.
	DTN dtn.Config
}

func (c DTNScaleConfig) withDefaults() DTNScaleConfig {
	if c.Rounds <= 0 {
		c.Rounds = 48
	}
	return c
}

// RunDTNScale measures both strategies in both worlds at each size.
func RunDTNScale(cfg DTNScaleConfig, deviceCounts []int) ([]DTNScalePoint, error) {
	cfg = cfg.withDefaults()
	out := make([]DTNScalePoint, 0, 4*len(deviceCounts))
	for _, n := range deviceCounts {
		for _, world := range []string{"bus", "campus"} {
			for _, strat := range []string{"epidemic", "social"} {
				p, err := RunDTNScaleMode(cfg, n, world, strat)
				if err != nil {
					return nil, err
				}
				out = append(out, p)
			}
		}
	}
	return out, nil
}

// RunDTNScaleMode measures a single strategy in a single world shape
// at one size (for benchmarks that pin each case separately).
func RunDTNScaleMode(cfg DTNScaleConfig, n int, world, strategy string) (DTNScalePoint, error) {
	cfg = cfg.withDefaults()
	if n < 8 {
		return DTNScalePoint{}, fmt.Errorf("harness: dtn scale: need at least eight devices, got %d", n)
	}
	p, err := runDTNScalePoint(cfg, n, world, strategy)
	if err != nil {
		return DTNScalePoint{}, fmt.Errorf("harness: dtn scale %s/%s point %d: %w", world, strategy, n, err)
	}
	return p, nil
}

// dtnScaleWorld is one sparse mobility world: static residents grouped
// into communities at dwell points, couriers on a deterministic tour.
type dtnScaleWorld struct {
	*sweep
	devs []ids.DeviceID
	// community[i] is device i's home dwell point (-1 for couriers).
	community []int
	// stops[s] is dwell point s's origin.
	stops []geo.Point
	// couriers indexes the mobile devices; courier k's tour visits
	// stop (epoch*step + phase) mod len(stops).
	couriers []int
	phase    []int
	step     []int
	// dwell is rounds spent per stop before the next teleport.
	dwell   int
	nodes   []*dtn.Node
	drivers []driver
}

// dtnScaleGeometry lays out the world. Bus worlds put ~12 residents
// per stop with one bus per three stops; campus worlds put the same
// residents per building with one walking courier per building, on a
// grid. Stops are 60 m apart — far outside Bluetooth range, so
// couriers are the only inter-community path.
func dtnScaleGeometry(n int, world string, seed int64) (residentsPerStop, courierEvery int) {
	switch world {
	case "bus":
		return 12, 3
	default: // campus
		return 12, 1
	}
}

func buildDTNScaleWorld(cfg DTNScaleConfig, n int, world string, strategy string) (*dtnScaleWorld, error) {
	seed := cfg.Seed + int64(n)
	residents, courierEvery := dtnScaleGeometry(n, world, seed)
	w := &dtnScaleWorld{sweep: newSweep(cfg.Engine, seed, vtime.NewScale(1e-6)), dwell: 2}
	env := w.env
	// Partition n into stops of `residents` plus one courier per
	// `courierEvery` stops.
	perBlock := residents*courierEvery + 1
	blocks := (n + perBlock - 1) / perBlock
	stops := blocks * courierEvery
	cols := int(math.Ceil(math.Sqrt(float64(stops))))
	const spacing = 60.0
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < stops; s++ {
		var at geo.Point
		if world == "bus" {
			at = geo.Pt(float64(s)*spacing, 0)
		} else {
			at = geo.Pt(float64(s%cols)*spacing, float64(s/cols)*spacing)
		}
		w.stops = append(w.stops, at)
	}
	placed := 0
	for s := 0; s < stops && placed < n; s++ {
		for r := 0; r < residents && placed < n; r++ {
			dev := ids.DeviceIDf("dev-%05d", placed)
			at := geo.Pt(w.stops[s].X+rng.Float64()*4, w.stops[s].Y+rng.Float64()*4)
			if err := env.Add(dev, mobility.Static{At: at}, radio.Bluetooth); err != nil {
				return nil, err
			}
			w.devs = append(w.devs, dev)
			w.community = append(w.community, s)
			placed++
		}
		if (s+1)%courierEvery == 0 && placed < n {
			dev := ids.DeviceIDf("dev-%05d", placed)
			if err := env.Add(dev, mobility.Static{At: w.stops[s]}, radio.Bluetooth); err != nil {
				return nil, err
			}
			w.devs = append(w.devs, dev)
			w.community = append(w.community, -1)
			w.couriers = append(w.couriers, placed)
			w.phase = append(w.phase, s)
			// Coprime-ish steps spread the tours; step 1 is the plain
			// shuttle.
			w.step = append(w.step, 1+len(w.couriers)%2)
			placed++
		}
	}
	if len(w.couriers) == 0 {
		return nil, fmt.Errorf("world of %d devices produced no couriers", n)
	}

	strat := dtn.Epidemic
	if strategy == "social" {
		strat = dtn.Social
	}
	nodeCfg := cfg.DTN
	nodeCfg.Strategy = strat
	if nodeCfg.Fanout <= 0 {
		// A contact round must cover the whole dwell-point neighborhood
		// (residents plus any parked couriers); the default fanout of 8
		// would deterministically truncate the sorted neighbor list and
		// could exclude the courier — the only inter-community path.
		nodeCfg.Fanout = residents + 8
	}
	byDevice := make(map[ids.DeviceID]int, len(w.devs))
	for i, dev := range w.devs {
		byDevice[dev] = i
	}
	for i, dev := range w.devs {
		node, err := dtn.NewNode(dtn.Params{
			Device:    dev,
			Neighbors: func() []ids.DeviceID { return env.Neighbors(dev, radio.Bluetooth) },
			Groups:    func() []core.Group { return w.groupsOf(i, byDevice) },
			Net:       w.net,
			Seed:      seed,
			Config:    nodeCfg,
		})
		if err == nil {
			err = node.Start()
		}
		if err != nil {
			w.close()
			return nil, err
		}
		w.nodes = append(w.nodes, node)
		w.drivers = append(w.drivers, node)
	}
	return w, nil
}

// groupsOf computes device i's current group view: its radio neighbors
// bucketed by home community. A resident sees its own community's
// group; a courier parked at a stop sees that stop's group — and
// absorbing it is how the social strategy learns which destinations
// the courier "meets", exactly the GROUPS-NET group-encounter signal.
func (w *dtnScaleWorld) groupsOf(i int, byDevice map[ids.DeviceID]int) []core.Group {
	neigh := w.env.Neighbors(w.devs[i], radio.Bluetooth)
	buckets := make(map[int][]core.Member)
	add := func(idx int) {
		c := w.community[idx]
		if c < 0 {
			return
		}
		buckets[c] = append(buckets[c], core.Member{
			Device: w.devs[idx],
			ID:     ids.MemberID(w.devs[idx]),
		})
	}
	add(i)
	for _, nd := range neigh {
		if idx, ok := byDevice[nd]; ok {
			add(idx)
		}
	}
	comms := make([]int, 0, len(buckets))
	for c := range buckets {
		comms = append(comms, c)
	}
	sort.Ints(comms)
	out := make([]core.Group, 0, len(buckets))
	for _, c := range comms {
		out = append(out, core.Group{
			Interest: fmt.Sprintf("community-%03d", c),
			Members:  buckets[c],
		})
	}
	return out
}

// tourCouriers teleports every courier to its scheduled stop for the
// given round. Mobility is round-driven and explicit, so the contact
// schedule is a pure function of the seed on either engine.
func (w *dtnScaleWorld) tourCouriers(round int) error {
	epoch := round / w.dwell
	for k, idx := range w.couriers {
		s := (w.phase[k] + epoch*w.step[k]) % len(w.stops)
		at := w.stops[s]
		if err := w.env.SetModel(w.devs[idx], mobility.Static{At: geo.Pt(at.X+1, at.Y+1)}); err != nil {
			return err
		}
	}
	return nil
}

func (w *dtnScaleWorld) close() {
	for _, n := range w.nodes {
		n.Stop()
	}
	w.net.Close()
}

func runDTNScalePoint(cfg DTNScaleConfig, n int, world, strategy string) (DTNScalePoint, error) {
	w, err := buildDTNScaleWorld(cfg, n, world, strategy)
	if err != nil {
		return DTNScalePoint{}, err
	}
	defer w.close()

	point := DTNScalePoint{Devices: n, World: world, Strategy: strategy, Engine: cfg.name()}
	sw := vtime.NewStopwatch(vtime.Real(), vtime.Identity())

	warmup := cfg.Warmup
	if warmup <= 0 {
		// One full courier tour: every courier has parked at every stop
		// at least once, so encounter memories cover the world.
		warmup = len(w.stops)*w.dwell + 2
	}
	round := 0
	for ; round < warmup; round++ {
		if err := w.tourCouriers(round); err != nil {
			return DTNScalePoint{}, err
		}
		w.round(w.devs, w.drivers, 0)
	}

	// Traffic: cross-community messages between residents. Same seed →
	// same (src, dst) pairs for every strategy, so the copy-cost ratio
	// compares strategies on identical work.
	msgs := cfg.Messages
	if msgs <= 0 {
		msgs = n / 8
		if msgs < 8 {
			msgs = 8
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x627573))
	var residents []int
	for i, c := range w.community {
		if c >= 0 {
			residents = append(residents, i)
		}
	}
	type sent struct {
		id    string
		dst   int
		round int
	}
	pending := make([]sent, 0, msgs)
	ttl := cfg.DTN.TTLRounds
	if ttl <= 0 {
		ttl = warmup + cfg.Rounds + 8
	}
	for k := 0; k < msgs; k++ {
		src := residents[rng.Intn(len(residents))]
		dst := residents[rng.Intn(len(residents))]
		for w.community[dst] == w.community[src] {
			dst = residents[rng.Intn(len(residents))]
		}
		id, err := w.nodes[src].SendTTL(w.devs[dst], []byte(fmt.Sprintf("bundle-%04d", k)), ttl)
		if err != nil {
			return DTNScalePoint{}, err
		}
		pending = append(pending, sent{id: id, dst: dst, round: round})
	}
	point.Sent = msgs

	var latencySum float64
	for budget := 0; budget < cfg.Rounds; budget++ {
		if err := w.tourCouriers(round); err != nil {
			return DTNScalePoint{}, err
		}
		w.round(w.devs, w.drivers, 0)
		round++
		remain := pending[:0]
		for _, s := range pending {
			if w.nodes[s.dst].Consumed(s.id) {
				point.Delivered++
				latencySum += float64(round - s.round)
				continue
			}
			remain = append(remain, s)
		}
		pending = remain
		if len(pending) == 0 {
			break
		}
	}
	point.Rounds = round
	point.Wall = sw.Elapsed()
	for _, node := range w.nodes {
		point.Stats.Add(node.Stats())
	}
	point.CopiesSent = point.Stats.CopiesSent
	if point.Sent > 0 {
		point.DeliveryRatio = float64(point.Delivered) / float64(point.Sent)
	}
	if point.Delivered > 0 {
		point.MeanLatency = latencySum / float64(point.Delivered)
		point.CopiesPerDelivered = float64(point.CopiesSent) / float64(point.Delivered)
	}
	if !point.Stats.CustodyBalanced() {
		return DTNScalePoint{}, fmt.Errorf("custody counters unbalanced: %+v", point.Stats)
	}
	return point, nil
}

// FormatDTNScale renders the series as a table.
func FormatDTNScale(points []DTNScalePoint) string {
	header := []string{"Devices", "World", "Strategy", "Engine", "Rounds", "Delivered", "Ratio", "MeanLatency", "Copies", "Copies/dlv", "Wall"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Devices),
			p.World,
			p.Strategy,
			p.Engine,
			fmt.Sprintf("%d", p.Rounds),
			fmt.Sprintf("%d/%d", p.Delivered, p.Sent),
			fmt.Sprintf("%.2f", p.DeliveryRatio),
			fmt.Sprintf("%.1f", p.MeanLatency),
			fmt.Sprintf("%d", p.CopiesSent),
			fmt.Sprintf("%.1f", p.CopiesPerDelivered),
			p.Wall.Round(time.Millisecond).String(),
		})
	}
	return FormatTable(header, rows)
}
