package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/dtn"
	"repro/internal/geo"
	"repro/internal/gossip"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// The courier workload is mobile gossip plus DTN delivery on the DES
// engine in integrated mode (the scheduler runs in the background while
// the nodes' blocking handshakes run on goroutines). A bus line of
// stops, each with a cluster of residents, is served by couriers that
// the benchmark teleports along seeded tours between rounds. Every
// device runs a gossip.Node and a dtn.Node with the social strategy,
// whose group view is the gossip node's, refreshed after each gossip
// round. One goroutine drives the devices in order, round after round.

type courierConfig struct {
	// Blocks of CourierEvery stops line up along the route; each block
	// has one courier.
	Blocks, CourierEvery int
	// Residents live at each stop; stops are 60 m apart, far outside
	// Bluetooth range, so couriers are the only path between them.
	Residents int
	// Dwell is how many rounds a courier parks at a stop.
	Dwell int
	// Warmup rounds run before any traffic; messages originate during
	// the Traffic rounds that follow, PerRound per round, each with a
	// lifetime of TTL rounds. The run ends when the last one expires.
	Warmup, Traffic, PerRound, TTL int
	// EditEvery: a seeded 1/EditEvery of the devices edit their gossip
	// record each round.
	EditEvery int
}

var courierDefaults = courierConfig{
	Blocks: 4, CourierEvery: 3, Residents: 12, Dwell: 1,
	Warmup: 12, Traffic: 10, PerRound: 40, TTL: 12, EditEvery: 64,
}

// courierPool is the rotating interest every record carries beside its
// stop topic.
var courierPool = []string{"music", "chess", "films", "games", "food", "travel"}

const stopSpacing = 60.0

type courierDev struct {
	dev   ids.DeviceID
	home  int // home stop; -1 for a courier
	at    int // current stop
	pool  string
	epoch uint64
	g     *gossip.Node
	d     *dtn.Node
}

// record is the device's gossip record: its current stop's topic plus
// its pool interest.
func (c *courierDev) record() gossip.Record {
	return gossip.Record{Epoch: c.epoch, Interests: []string{fmt.Sprintf("stop-%03d", c.at), c.pool}}
}

type courierWorld struct {
	cfg      courierConfig
	sched    *des.Scheduler
	env      *radio.Environment
	net      *netsim.Network
	devs     []*courierDev
	stops    []geo.Point
	couriers []int
	step     []int
	phase    []int
	// residents[s] indexes the devices living at stop s.
	residents [][]int
	// epoch pins every neighbor query of a round to one instant, so a
	// round shares one radio snapshot.
	epoch time.Duration
}

type originated struct {
	id      string
	src     int
	dst     int
	payload []byte
	round   int
}

func runCourier(cfg courierConfig, seed int64, tr *tracer, setupOnly bool) (*episode, error) {
	ctx := context.Background()
	ep := &episode{executors: 1}
	rounds := cfg.Warmup + cfg.Traffic + cfg.TTL
	nstops := cfg.Blocks * cfg.CourierEvery
	devices := nstops*cfg.Residents + cfg.Blocks
	buf := tr.buf(devices*rounds*12 + 64)
	// One goroutine drives the nodes; the DES runner mostly waits.
	const width = 1
	setup := startStopwatch(width)
	w := &courierWorld{cfg: cfg}
	w.sched = des.NewScheduler(seed, 8)
	w.env = radio.NewEnvironment(radio.WithScale(vtime.NewScale(1e-6)), radio.WithClock(w.sched.Clock()))

	sp := buf.begin(kPlace)
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < nstops; s++ {
		w.stops = append(w.stops, geo.Pt(float64(s)*stopSpacing, 0))
	}
	// Every stop gets the same mix of pool interests; the seed rotates
	// who holds which, so seeds differ in detail but not in structure.
	offset := rng.Intn(len(courierPool))
	pool := func(i int) string { return courierPool[(i+offset)%len(courierPool)] }
	for s := 0; s < nstops; s++ {
		w.residents = append(w.residents, nil)
		for r := 0; r < cfg.Residents; r++ {
			w.residents[s] = append(w.residents[s], len(w.devs))
			at := geo.Pt(w.stops[s].X+rng.Float64()*4, rng.Float64()*4)
			if err := w.add(at, s, s, pool(r+s)); err != nil {
				return nil, err
			}
		}
		if (s+1)%cfg.CourierEvery == 0 {
			w.couriers = append(w.couriers, len(w.devs))
			w.phase = append(w.phase, s)
			w.step = append(w.step, 1+len(w.couriers)%2)
			if err := w.add(geo.Pt(w.stops[s].X+1, 1), -1, s, pool(s)); err != nil {
				return nil, err
			}
		}
	}
	buf.end(sp)

	w.net = netsim.NewDES(w.env, seed, w.sched)
	w.sched.Start()
	defer w.close()
	for _, c := range w.devs {
		if err := w.startNodes(c, seed, buf); err != nil {
			return nil, err
		}
	}
	ep.setup = setup.lap()
	if setupOnly {
		return ep, nil
	}
	settle()

	netBefore := w.net.Counters()
	events := w.sched.EventsExecuted()
	rt := readRuntime()
	var sent, pending []originated
	var latencies []float64
	peak := 0
	sw := startStopwatch(width)
	for r := 0; r < rounds; r++ {
		rr := rand.New(rand.NewSource(seed*7_919 + int64(r)))
		if err := w.tour(r, buf); err != nil {
			return nil, err
		}
		w.epoch = w.env.Elapsed()
		for _, i := range rr.Perm(len(w.devs))[:len(w.devs)/cfg.EditEvery] {
			w.devs[i].pool = courierPool[rr.Intn(len(courierPool))]
			w.devs[i].epoch++
		}
		if r >= cfg.Warmup && r < cfg.Warmup+cfg.Traffic {
			for k := 0; k < cfg.PerRound; k++ {
				m, err := w.originate(rr, len(sent), r, buf)
				if err != nil {
					return nil, err
				}
				sent = append(sent, m)
				pending = append(pending, m)
			}
		}
		for _, c := range w.devs {
			s := buf.begin(kGossipRound)
			c.g.Round(ctx)
			buf.end(s)
			s = buf.begin(kGossipRefresh)
			c.g.Refresh()
			buf.end(s)
			s = buf.begin(kDTNRound)
			c.d.Round(ctx)
			buf.end(s)
			peak = max(peak, runtime.NumGoroutine())
		}
		remain := pending[:0]
		for _, m := range pending {
			if w.devs[m.dst].d.Consumed(m.id) {
				latencies = append(latencies, float64(r-m.round+1))
				continue
			}
			remain = append(remain, m)
		}
		pending = remain
		ep.window(sw)
	}
	ep.runtime = readRuntime().since(rt)
	ep.runtime.goroutinesPeak = peak
	netAfter := w.net.Counters()
	ep.events = w.sched.EventsExecuted() - events

	var gs gossip.Stats
	var ds dtn.Stats
	for _, c := range w.devs {
		gs.Add(c.g.Stats())
		ds.Add(c.d.Stats())
	}
	ep.devRounds = len(w.devs) * rounds
	dr := float64(ep.devRounds)
	ep.attempted = int(gs.PushesSent + gs.AERuns + ds.OffersSent)
	ep.failed = int(gs.PushErrors + gs.AEErrors + ds.ExchangeErrors)
	ep.modeled = modeled{
		wireBytesPerDevRound: float64(netAfter.BytesDelivered-netBefore.BytesDelivered) / dr,
		deliveryRatio:        ratio(len(latencies), len(sent)),
		copiesPerDelivered:   ratio(int(ds.CopiesSent), len(latencies)),
		deliveryRoundsP50:    roundsMedian(latencies),
	}
	ep.counters = netsimCounters(netBefore, netAfter, dr)
	ep.counters["gossip.push_skip_ratio"] = ratio(int(gs.PushesSkipped), int(gs.PushesSent+gs.PushesSkipped))
	ep.counters["gossip.learned_per_record_sent"] = ratio(int(gs.RecordsLearned), int(gs.RumorRecordsSent+gs.AERecordsPushed))
	ep.counters["gossip.ae_runs_per_dev_round"] = float64(gs.AERuns) / dr
	ep.counters["dtn.offers_per_dev_round"] = float64(ds.OffersSent) / dr
	ep.counters["dtn.duplicate_ratio"] = ratio(int(ds.Duplicates), int(ds.Duplicates+ds.CopiesReceived))
	ep.counters["dtn.expired"] = float64(ds.Expired)
	ep.counters["dtn.evicted"] = float64(ds.Evicted)
	var digest uint64
	for _, c := range w.devs {
		digest = digest*1_000_003 ^ c.d.TraceDigest()
	}
	ep.fingerprint = fingerprint(ep, digest)
	// Integrated-mode event counts include the background runner's
	// clock wakes, so they stay out of the seed-exact fingerprint.
	ep.counters["des.events_per_dev_round"] = float64(ep.events) / dr
	ep.oracle = w.check(sent, ds)
	return ep, nil
}

func (w *courierWorld) add(at geo.Point, home, stop int, pool string) error {
	dev := ids.DeviceIDf("dev-%05d", len(w.devs))
	if err := w.env.Add(dev, mobility.Static{At: at}, radio.Bluetooth); err != nil {
		return err
	}
	w.devs = append(w.devs, &courierDev{dev: dev, home: home, at: stop, pool: pool, epoch: 1})
	return nil
}

// startNodes wires one device's gossip and DTN nodes. The callbacks
// run on the driver goroutine, inside Round and Refresh, so their spans
// nest in the driver's buffer.
func (w *courierWorld) startNodes(c *courierDev, seed int64, buf *spanBuf) error {
	neighbors := func() []ids.DeviceID {
		s := buf.begin(kNeighborsCb)
		q := buf.begin(kNeighborsAt)
		out := w.env.NeighborsAt(c.dev, radio.Bluetooth, w.epoch)
		buf.end(q)
		buf.end(s)
		return out
	}
	g, err := gossip.NewNode(gossip.Params{
		Device: c.dev, Member: ids.MemberID(c.dev),
		Self: c.record, Neighbors: neighbors, Net: w.net, Seed: seed,
	})
	if err != nil {
		return err
	}
	if err := g.Start(); err != nil {
		return err
	}
	c.g = g
	groups := func() []core.Group {
		s := buf.begin(kGroupsCb)
		out := g.Groups()
		buf.end(s)
		return out
	}
	d, err := dtn.NewNode(dtn.Params{
		Device: c.dev, Neighbors: neighbors, Groups: groups, Net: w.net, Seed: seed,
		Config: dtn.Config{
			Strategy: dtn.Social,
			// A contact round covers a whole stop (residents plus any
			// parked couriers), so the courier is never cut off.
			Fanout: w.cfg.Residents + 8,
		},
	})
	if err != nil {
		return err
	}
	if err := d.Start(); err != nil {
		return err
	}
	c.d = d
	return nil
}

// tour teleports every courier to its stop for round r; a courier that
// reaches a new stop takes up that stop's topic, a record edit.
func (w *courierWorld) tour(r int, buf *spanBuf) error {
	leg := r / w.cfg.Dwell
	for k, idx := range w.couriers {
		c := w.devs[idx]
		s := (w.phase[k] + leg*w.step[k]) % len(w.stops)
		if s != c.at {
			c.at = s
			c.epoch++
		}
		sp := buf.begin(kSetModel)
		err := w.env.SetModel(c.dev, mobility.Static{At: geo.Pt(w.stops[s].X+1, 1)})
		buf.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// originate sends the k-th message of the traffic window between
// residents of different stops. The stop pairs are stratified — source
// stops cycle through the line and, each cycle, the destination offset
// advances — so every seed carries the same traffic matrix; the seed
// picks the residents and the payload.
func (w *courierWorld) originate(rr *rand.Rand, k, r int, buf *spanBuf) (originated, error) {
	stops := len(w.residents)
	from := k % stops
	to := (from + 1 + (k/stops)%(stops-1)) % stops
	src := w.residents[from][rr.Intn(len(w.residents[from]))]
	dst := w.residents[to][rr.Intn(len(w.residents[to]))]
	payload := make([]byte, 32)
	rr.Read(payload)
	s := buf.begin(kDTNSend)
	id, err := w.devs[src].d.SendTTL(w.devs[dst].dev, payload, w.cfg.TTL)
	buf.end(s)
	return originated{id: id, src: src, dst: dst, payload: payload, round: r}, err
}

// check is the courier oracle: custody balances fleet-wide, every
// consumed message is byte-equal to what was sent to that device, and
// none is delivered twice.
func (w *courierWorld) check(sent []originated, ds dtn.Stats) error {
	if !ds.CustodyBalanced() {
		return fmt.Errorf("courier: custody unbalanced: %+v", ds)
	}
	byID := make(map[string]originated, len(sent))
	for _, m := range sent {
		byID[m.id] = m
	}
	seen := make(map[string]bool)
	for i, c := range w.devs {
		for _, msg := range c.d.Received() {
			m, ok := byID[msg.ID]
			switch {
			case !ok:
				return fmt.Errorf("courier: %s consumed unknown message %s", c.dev, msg.ID)
			case m.dst != i:
				return fmt.Errorf("courier: %s consumed %s addressed to %s", c.dev, msg.ID, w.devs[m.dst].dev)
			case seen[msg.ID]:
				return fmt.Errorf("courier: %s delivered twice", msg.ID)
			case !bytes.Equal(msg.Payload, m.payload) || msg.Src != w.devs[m.src].dev:
				return fmt.Errorf("courier: %s arrived altered", msg.ID)
			}
			seen[msg.ID] = true
		}
	}
	if uint64(len(seen)) != ds.Delivered {
		return fmt.Errorf("courier: %d messages consumed, stats count %d", len(seen), ds.Delivered)
	}
	return nil
}

func (w *courierWorld) close() {
	for _, c := range w.devs {
		if c.d != nil {
			c.d.Stop()
		}
		if c.g != nil {
			c.g.Stop()
		}
	}
	w.net.Close()
	w.sched.Stop()
}
