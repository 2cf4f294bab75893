package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// The discovery workload is the pure-event sweep on the DES engine:
// every device's round is an event cascade — inquiry delay, an
// epoch-pinned radio.NeighborsAt, a capped fan-out of advertisement
// exchanges (DialEvent → SendEvent → RecvEvent → CloseEvent), then
// core.DiscoverGroups — and the next round is scheduled only when the
// previous one has finished (closed loop). Nothing writes and no
// protocol plane runs, so the scheduler, the radio read path and the
// event transport carry the whole cost.

type discoveryConfig struct {
	Devices int
	Rounds  int
	Fanout  int
	Shards  int
	// Workers overrides the scheduler's executor count (0: GOMAXPROCS).
	Workers int
}

var discoveryDefaults = discoveryConfig{Devices: 20000, Rounds: 2, Fanout: 3, Shards: 8}

// adPool is the advertisement vocabulary: small enough that groups
// form, large enough that not every pair shares a term.
var adPool = []string{"football", "biking", "music", "chess", "films", "news", "games", "food"}

const adPort = "bench-ad"

type discoveryWorld struct {
	cfg     discoveryConfig
	sched   *des.Scheduler
	env     *radio.Environment
	net     *netsim.Network
	devs    []*discDevice
	index   map[ids.DeviceID]int
	inquiry time.Duration
}

// discDevice is one device's driver and advertisement server. Every
// field below the first block is touched only from events on the
// device's home, so it needs no lock.
type discDevice struct {
	w    *discoveryWorld
	dev  ids.DeviceID
	home uint64
	self core.Member
	ad   []byte
	buf  *spanBuf

	round  int
	neigh  []ids.DeviceID
	j      int
	nearby []core.Member
	groups []core.Group

	exchanges, exchangeFails int
	adsSent, adsConsumed     int
	goroutinesPeak           int
}

func adFor(dev ids.DeviceID, interests []string) []byte {
	return []byte("ad|" + string(dev) + "|" + strings.Join(interests, ","))
}

func parseAd(payload []byte) ([]string, bool) {
	parts := strings.Split(string(payload), "|")
	if len(parts) != 3 || parts[0] != "ad" {
		return nil, false
	}
	return strings.Split(parts[2], ","), true
}

// runDiscovery runs one episode: set-up, the timed sweep, oracles.
func runDiscovery(cfg discoveryConfig, seed int64, tr *tracer, setupOnly bool) (*episode, error) {
	ep := &episode{}
	// The timed episodes run on GOMAXPROCS workers, so every episode
	// probes that many cores.
	width := runtime.GOMAXPROCS(0)
	setup := startStopwatch(width)
	main := tr.buf(8)
	w := &discoveryWorld{cfg: cfg, index: make(map[ids.DeviceID]int, cfg.Devices)}
	w.sched = des.NewScheduler(seed, cfg.Shards)
	if cfg.Workers > 0 {
		w.sched.SetWorkers(cfg.Workers)
	}
	w.env = radio.NewEnvironment(radio.WithScale(vtime.NewScale(1e-3)), radio.WithClock(w.sched.Clock()))

	sp := main.begin(kPlace)
	rng := rand.New(rand.NewSource(seed))
	side := math.Sqrt(float64(cfg.Devices) * 50) // ~50 m² per device
	for i := 0; i < cfg.Devices; i++ {
		dev := ids.DeviceIDf("dev-%05d", i)
		at := geo.Pt(rng.Float64()*side, rng.Float64()*side)
		if err := w.env.Add(dev, mobility.Static{At: at}, radio.Bluetooth); err != nil {
			return nil, err
		}
		a := rng.Intn(len(adPool))
		b := (a + 1 + rng.Intn(len(adPool)-1)) % len(adPool)
		d := &discDevice{w: w, dev: dev, home: netsim.DeviceHome(dev), buf: tr.buf(cfg.Rounds * 48)}
		d.self = core.Member{Device: dev, ID: ids.MemberID(dev), Interests: []string{adPool[a], adPool[b]}}
		d.ad = adFor(dev, d.self.Interests)
		w.index[dev] = i
		w.devs = append(w.devs, d)
	}
	main.end(sp)

	w.net = netsim.NewDES(w.env, seed, w.sched)
	defer w.net.Close()
	for _, d := range w.devs {
		l, err := w.net.Listen(d.dev, adPort)
		if err != nil {
			return nil, err
		}
		l.AcceptEvent(d.accept)
	}
	w.inquiry = w.env.Scale().ToReal(w.env.PHY(radio.Bluetooth).InquiryDuration)
	ep.setup = setup.lap()
	if setupOnly {
		return ep, nil
	}
	settle()

	before := w.net.Counters()
	rt := readRuntime()
	sw := startStopwatch(width)
	for _, d := range w.devs {
		w.sched.At(w.inquiry, d.home, d.startRound)
	}
	// The sweep runs in slices of virtual time, one timing window each;
	// every episode of a seed executes the same events in each slice.
	for horizon := time.Duration(0); w.sched.Pending() > 0; {
		horizon += w.inquiry / 4
		sp = main.begin(kDESRun)
		w.sched.RunUntil(horizon)
		main.end(sp)
		ep.window(sw)
	}
	ep.runtime = readRuntime().since(rt)
	after := w.net.Counters()

	ep.devRounds = cfg.Devices * cfg.Rounds
	ep.executors = w.sched.Workers()
	ep.events = w.sched.EventsExecuted()
	var ok, sent, consumed int
	for _, d := range w.devs {
		ep.attempted += d.exchanges
		ep.failed += d.exchangeFails
		ok += d.exchanges - d.exchangeFails
		sent += d.adsSent
		consumed += d.adsConsumed
		ep.runtime.goroutinesPeak = max(ep.runtime.goroutinesPeak, d.goroutinesPeak)
	}
	dr := float64(ep.devRounds)
	ep.modeled = modeled{
		wireBytesPerDevRound: float64(after.BytesDelivered-before.BytesDelivered) / dr,
		deliveryRatio:        ratio(consumed, sent),
		copiesPerDelivered:   ratio(sent, consumed),
		// Both ads of an exchange are consumed inside the round that sent
		// them: the driver waits for the reply before its round ends.
		deliveryRoundsP50: 1,
	}
	ep.counters = netsimCounters(before, after, dr)
	ep.counters["des.events_per_dev_round"] = float64(ep.events) / dr
	ep.fingerprint = fingerprint(ep, w.sched.TraceHash(), ep.events)
	ep.oracle = w.check(after.MessagesDelivered-before.MessagesDelivered, ok, seed)
	return ep, nil
}

// check is the discovery oracle: each device's last-round groups equal
// DiscoverGroups over the statically known interests of the neighbors
// it exchanged with; every exchange delivered exactly two messages;
// and, for a seeded sample of devices, the grid-indexed neighbor query
// agrees with the brute-force scan.
func (w *discoveryWorld) check(delivered uint64, okExchanges int, seed int64) error {
	if delivered != uint64(2*okExchanges) {
		return fmt.Errorf("discovery: %d messages delivered for %d successful exchanges", delivered, okExchanges)
	}
	epoch := w.env.Elapsed().Truncate(w.env.PHY(radio.Bluetooth).InquiryDuration)
	for i, d := range w.devs {
		neigh := w.env.NeighborsAt(d.dev, radio.Bluetooth, epoch)
		var nearby []core.Member
		for j := 0; j < w.cfg.Fanout && j < len(neigh); j++ {
			nearby = append(nearby, w.devs[w.index[neigh[j]]].self)
		}
		if err := sameGroups(d.groups, core.DiscoverGroups(d.self, nearby, nil)); err != nil {
			return fmt.Errorf("discovery: device %d: %w", i, err)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6f7261636c65))
	for k := 0; k < 32 && len(w.devs) > 0; k++ {
		d := w.devs[rng.Intn(len(w.devs))]
		got := w.env.NeighborsAt(d.dev, radio.Bluetooth, epoch)
		want := w.env.NeighborsBruteAt(d.dev, radio.Bluetooth, epoch)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("discovery: %s: grid neighbors %v, brute force %v", d.dev, got, want)
		}
	}
	return nil
}

// startRound fires after the device's inquiry window.
func (d *discDevice) startRound(ctx *des.Ctx) {
	sp := d.buf.begin(kCont)
	d.goroutinesPeak = max(d.goroutinesPeak, runtime.NumGoroutine())
	w := d.w
	// Pin the query to an inquiry-sized epoch so every device of the
	// round shares one world snapshot.
	epoch := w.env.Elapsed().Truncate(w.env.PHY(radio.Bluetooth).InquiryDuration)
	s := d.buf.begin(kNeighborsAt)
	d.neigh = w.env.NeighborsAt(d.dev, radio.Bluetooth, epoch)
	d.buf.end(s)
	d.nearby = d.nearby[:0]
	d.j = 0
	d.nextExchange(ctx)
	d.buf.end(sp)
}

// nextExchange dials the next capped-fanout neighbor, or finishes the
// round. A failure at any step moves on to the next neighbor.
func (d *discDevice) nextExchange(ctx *des.Ctx) {
	w := d.w
	if d.j >= w.cfg.Fanout || d.j >= len(d.neigh) {
		d.finishRound(ctx)
		return
	}
	peer := d.neigh[d.j]
	d.j++
	d.exchanges++
	s := d.buf.begin(kDialEvent)
	w.net.DialEvent(ctx, d.dev, peer, radio.Bluetooth, adPort, func(ctx *des.Ctx, c *netsim.Conn, err error) {
		d.dialed(ctx, peer, c, err)
	})
	d.buf.end(s)
}

func (d *discDevice) dialed(ctx *des.Ctx, peer ids.DeviceID, c *netsim.Conn, err error) {
	sp := d.buf.begin(kCont)
	defer d.buf.end(sp)
	if err != nil {
		d.exchangeFails++
		d.nextExchange(ctx)
		return
	}
	s := d.buf.begin(kSendEvent)
	err = c.SendEvent(ctx, d.ad)
	d.buf.end(s)
	if err != nil {
		d.exchangeFails++
		closeEvent(d.buf, ctx, c)
		d.nextExchange(ctx)
		return
	}
	d.adsSent++
	s = d.buf.begin(kRecvEvent)
	c.RecvEvent(ctx, func(ctx *des.Ctx, msg []byte, err error) { d.replied(ctx, peer, c, msg, err) })
	d.buf.end(s)
}

func (d *discDevice) replied(ctx *des.Ctx, peer ids.DeviceID, c *netsim.Conn, msg []byte, err error) {
	sp := d.buf.begin(kCont)
	defer d.buf.end(sp)
	ints, ok := parseAd(msg)
	if err != nil || !ok {
		d.exchangeFails++
	} else {
		d.adsConsumed++
		d.nearby = append(d.nearby, core.Member{Device: peer, ID: ids.MemberID(peer), Interests: ints})
	}
	closeEvent(d.buf, ctx, c)
	d.nextExchange(ctx)
}

// finishRound forms the round's groups and schedules the next round.
func (d *discDevice) finishRound(ctx *des.Ctx) {
	s := d.buf.begin(kDiscoverGroups)
	d.groups = core.DiscoverGroups(d.self, d.nearby, nil)
	d.buf.end(s)
	d.round++
	if d.round < d.w.cfg.Rounds {
		ctx.At(d.w.inquiry, d.home, d.startRound)
	}
}

// accept runs inside the dialer's dial-completion event, on the
// dialer's home, so its spans go to the dialer's buffer.
func (d *discDevice) accept(ctx *des.Ctx, c *netsim.Conn) {
	buf := d.w.devs[d.w.index[c.Remote()]].buf
	sp := buf.begin(kCont)
	d.serve(ctx, c, buf)
	buf.end(sp)
}

// serve arms the next receive of the serving chain: receive an ad,
// answer with ours, wait for the next. buf is the executing home's
// buffer.
func (d *discDevice) serve(ctx *des.Ctx, c *netsim.Conn, buf *spanBuf) {
	s := buf.begin(kRecvEvent)
	c.RecvEvent(ctx, d.served(c))
	buf.end(s)
}

// served is the serving chain's receive continuation. Receive
// callbacks of the serving end run on this device's home.
func (d *discDevice) served(c *netsim.Conn) func(ctx *des.Ctx, msg []byte, err error) {
	return func(ctx *des.Ctx, msg []byte, err error) {
		sp := d.buf.begin(kCont)
		defer d.buf.end(sp)
		if err != nil {
			closeEvent(d.buf, ctx, c)
			return
		}
		if _, ok := parseAd(msg); ok {
			d.adsConsumed++
		}
		s := d.buf.begin(kSendEvent)
		err = c.SendEvent(ctx, d.ad)
		d.buf.end(s)
		if err != nil {
			closeEvent(d.buf, ctx, c)
			return
		}
		d.adsSent++
		d.serve(ctx, c, d.buf)
	}
}

func closeEvent(buf *spanBuf, ctx *des.Ctx, c *netsim.Conn) {
	s := buf.begin(kCloseEvent)
	c.CloseEvent(ctx)
	buf.end(s)
}

// sameGroups compares two group lists by interest and member IDs.
func sameGroups(got, want []core.Group) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, oracle %d (%v vs %v)", len(got), len(want), groupKeys(got), groupKeys(want))
	}
	for i := range got {
		if got[i].Interest != want[i].Interest || fmt.Sprint(got[i].MemberIDs()) != fmt.Sprint(want[i].MemberIDs()) {
			return fmt.Errorf("groups %v, oracle %v", groupKeys(got), groupKeys(want))
		}
	}
	return nil
}

func groupKeys(gs []core.Group) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.Interest + fmt.Sprint(g.MemberIDs())
	}
	return out
}

// netsimCounters turns the transport counters of the timed phase into
// per-layer metrics.
func netsimCounters(before, after netsim.Counters, devRounds float64) map[string]float64 {
	dials := after.DialsAttempted - before.DialsAttempted
	return map[string]float64{
		"netsim.dials_per_dev_round": float64(dials) / devRounds,
		"netsim.msgs_per_dev_round":  float64(after.MessagesDelivered-before.MessagesDelivered) / devRounds,
		"netsim.dial_success_ratio":  ratio(int(after.ConnsEstablished-before.ConnsEstablished), int(dials)),
	}
}
