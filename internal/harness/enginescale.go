package harness

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// This file is the engine-scaling experiment: the same discovery sweep
// — every device runs an inquiry window, queries its neighborhood, and
// exchanges interest advertisements with a capped fan-out, then forms
// its groups — on the goroutine transport engine and on the
// discrete-event engine, both through the one sweep kernel (sweep.go).
// On the goroutine engine every modeled duration is a (scaled) real
// timer wait, so wall-clock grows with device count times timer
// granularity. On the event engine each device's round is a driver
// event whose handshakes are a RoundEvent cascade, so the sweep spawns
// O(workers) goroutines instead of O(devices), shared deadlines
// collapse into windows, and the scheduler's worker pool executes the
// per-window shard batches on every core — which is what pushes the
// sweep from the goroutine engine's ~2k ceiling to 100k devices. Both
// engines walk the same round plan (esDriver) through netsim's one
// handshake sequencer.

// EngineScalePoint is one measured sweep at one world size.
type EngineScalePoint struct {
	Devices int
	// Engine is "goroutine" (goroutine transport engine) or "des" (event
	// drivers on the discrete-event engine).
	Engine string
	// Workers is the event engine's executor count (0 on the goroutine
	// engine).
	Workers int
	// Wall is the real wall-clock cost of the whole sweep.
	Wall time.Duration
	// Virtual is how much virtual (clock) time the sweep consumed.
	Virtual time.Duration
	// Events and EventsPerSec are the event engine's executed-event
	// count and throughput (zero on the goroutine engine).
	Events       uint64
	EventsPerSec float64
	// NsPerDeviceRound is Wall divided by device-rounds — the figure
	// whose growth (or flatness) is the scaling claim.
	NsPerDeviceRound float64
	// Groups totals the groups every device formed across rounds, and
	// Delivered the transport's delivered messages — evidence the sweep
	// actually exchanged interests rather than timing empty air.
	Groups    int
	Delivered uint64
	// TraceHash is the scheduler's canonical event-trace fold after the
	// sweep (zero on the goroutine engine). For pure event drivers it
	// must be invariant across shard and worker counts — the harness
	// determinism tests pin exactly that.
	TraceHash uint64
}

// EngineScaleConfig parameterizes the sweep.
type EngineScaleConfig struct {
	// Scale is the modeled-to-real latency scale (default 1e-3).
	Scale vtime.Scale
	// Seed drives placement and interests.
	Seed int64
	// Rounds is how many discovery rounds each device runs (default 2).
	Rounds int
	// Fanout caps how many neighbors each device exchanges interests
	// with per round (default 3).
	Fanout int
	// Engine selects the transport; on the discrete-event engine the
	// drivers are events.
	Engine
}

func (c EngineScaleConfig) withDefaults() EngineScaleConfig {
	if c.Scale.Factor() == 1 || c.Scale.Factor() == 0 {
		c.Scale = vtime.NewScale(1e-3)
	}
	if c.Rounds <= 0 {
		c.Rounds = 2
	}
	if c.Fanout <= 0 {
		c.Fanout = 3
	}
	return c
}

// engineScalePool is the interest vocabulary; small enough that groups
// form, large enough that not every pair shares one.
var engineScalePool = []string{"football", "biking", "music", "chess", "films", "news", "games", "food"}

func engineScaleInterests(i int) []string {
	out := []string{engineScalePool[i%len(engineScalePool)]}
	if second := engineScalePool[(i*5+3)%len(engineScalePool)]; second != out[0] {
		out = append(out, second)
	}
	return out
}

func engineScaleAd(dev ids.DeviceID, interests []string) []byte {
	return []byte("ad|" + string(dev) + "|" + strings.Join(interests, ","))
}

func engineScaleParse(payload []byte) ([]string, bool) {
	parts := strings.Split(string(payload), "|")
	if len(parts) != 3 || parts[0] != "ad" {
		return nil, false
	}
	return strings.Split(parts[2], ","), true
}

// RunEngineScale measures the discovery sweep at each world size.
func RunEngineScale(cfg EngineScaleConfig, deviceCounts []int) ([]EngineScalePoint, error) {
	cfg = cfg.withDefaults()
	out := make([]EngineScalePoint, 0, len(deviceCounts))
	for _, n := range deviceCounts {
		if n < 1 {
			return nil, fmt.Errorf("harness: engine scale: need at least one device, got %d", n)
		}
		p, err := runEngineScalePoint(cfg, n)
		if err != nil {
			return nil, fmt.Errorf("harness: engine scale point %d: %w", n, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func runEngineScalePoint(cfg EngineScaleConfig, n int) (EngineScalePoint, error) {
	seed := cfg.Seed + int64(n)
	s := newSweep(cfg.Engine, seed, cfg.Scale)
	defer s.net.Close()
	devs, err := placeUniform(s.env, n, seed)
	if err != nil {
		return EngineScalePoint{}, err
	}

	var groupsTotal atomic.Int64
	// Every device serves its interest advertisement on port "esd",
	// answering each ad it receives with its own.
	drivers := make([]driver, n)
	services := make([]*netsim.Service, 0, n)
	defer func() {
		for _, svc := range services {
			svc.Stop()
		}
	}()
	for i, dev := range devs {
		d := &esDriver{
			cfg: cfg, env: s.env, net: s.net, dev: dev, groupsTotal: &groupsTotal,
			self: core.Member{Device: dev, ID: ids.MemberID(dev), Interests: engineScaleInterests(i)},
		}
		d.ad = engineScaleAd(dev, d.self.Interests)
		var serveAd netsim.ServeStep
		serveAd = func(ids.DeviceID, []byte) ([]byte, netsim.ServeStep) { return d.ad, serveAd }
		lis, err := s.net.Listen(dev, "esd")
		if err != nil {
			return EngineScalePoint{}, err
		}
		services = append(services, lis.Serve(serveAd))
		drivers[i] = d
	}

	clock := s.env.Clock()
	inquiry := s.env.Scale().ToReal(s.env.PHY(radio.Bluetooth).InquiryDuration)
	virtStart := clock.Now()
	sw := vtime.NewStopwatch(vtime.Real(), vtime.Identity())
	for round := 0; round < cfg.Rounds; round++ {
		s.round(devs, drivers, inquiry)
	}
	wall := sw.Elapsed()
	point := EngineScalePoint{
		Devices:          n,
		Engine:           cfg.name(),
		Wall:             wall,
		Virtual:          clock.Now().Sub(virtStart),
		NsPerDeviceRound: float64(wall.Nanoseconds()) / float64(n*cfg.Rounds),
		Groups:           int(groupsTotal.Load()),
		Delivered:        s.net.Counters().MessagesDelivered,
	}
	if s.sched != nil {
		point.Workers = s.sched.Workers()
		point.Events = s.sched.EventsExecuted()
		point.TraceHash = s.sched.TraceHash()
		if sec := wall.Seconds(); sec > 0 {
			point.EventsPerSec = float64(point.Events) / sec
		}
	}
	return point, nil
}

// esDriver is one device's discovery driver: after the inquiry window,
// an epoch-pinned neighborhood query, a capped-fanout exchange of
// interest ads with the first neighbors, then group formation. On the
// event engine every continuation runs on this device's home (dial
// completions, deliveries and teardowns are all scheduled there), so
// driver state needs no locks: events on one home are ordered, whatever
// the shard or worker count.
type esDriver struct {
	cfg         EngineScaleConfig
	env         *radio.Environment
	net         *netsim.Network
	dev         ids.DeviceID
	groupsTotal *atomic.Int64
	self        core.Member
	ad          []byte

	neigh  []ids.DeviceID
	j      int
	nearby []core.Member
}

// Round runs one discovery round with blocking calls.
func (d *esDriver) Round(ctx context.Context) {
	d.begin()
	d.net.Round(ctx, d.dev, radio.Bluetooth, "esd", d.next)
	d.finish()
}

// RoundEvent runs one discovery round as an event cascade.
func (d *esDriver) RoundEvent(ctx *des.Ctx, then func(*des.Ctx)) {
	d.begin()
	d.net.RoundEvent(ctx, d.dev, radio.Bluetooth, "esd", d.next, func(ctx *des.Ctx) {
		d.finish()
		then(ctx)
	})
}

// begin starts a round with the neighborhood query. It is pinned to an
// inquiry-sized epoch: the world is static here, so the answer is the
// same at any instant — but on the event engine every device wakes at
// its own virtual nanosecond, and un-pinned queries would each rebuild
// the O(n) world snapshot instead of sharing one per epoch (the radio
// package's query-epoch rule; at 10k devices that rebuild is the whole
// sweep's cost).
func (d *esDriver) begin() {
	epoch := d.env.Elapsed().Truncate(d.env.PHY(radio.Bluetooth).InquiryDuration)
	d.neigh = d.env.NeighborsAt(d.dev, radio.Bluetooth, epoch)
	d.nearby = d.nearby[:0]
	d.j = 0
}

// next draws the round's next capped-fanout exchange: our ad out, the
// neighbor's ad back. A failed exchange just skips the neighbor.
func (d *esDriver) next() (netsim.Handshake, bool) {
	if d.j >= d.cfg.Fanout || d.j >= len(d.neigh) {
		return netsim.Handshake{}, false
	}
	peer := d.neigh[d.j]
	d.j++
	return netsim.Handshake{To: peer, Open: d.ad, Step: func(msg []byte, err error) ([]byte, netsim.Step) {
		if err == nil {
			if ints, ok := engineScaleParse(msg); ok {
				d.nearby = append(d.nearby, core.Member{Device: peer, ID: ids.MemberID(peer), Interests: ints})
			}
		}
		return nil, nil
	}}, true
}

// finish forms the round's groups.
func (d *esDriver) finish() {
	d.groupsTotal.Add(int64(len(core.DiscoverGroups(d.self, d.nearby, nil))))
}

// FormatEngineScale renders the series as a table.
func FormatEngineScale(points []EngineScalePoint) string {
	header := []string{"Devices", "Engine", "Workers", "Wall", "Virtual", "Events", "Events/s", "ns/dev-round", "Groups", "Delivered"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		events, eps, workers := "-", "-", "-"
		if p.Events > 0 {
			events = fmt.Sprintf("%d", p.Events)
			eps = fmt.Sprintf("%.0f", p.EventsPerSec)
		}
		if p.Workers > 0 {
			workers = fmt.Sprintf("%d", p.Workers)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Devices),
			p.Engine,
			workers,
			p.Wall.Round(time.Millisecond).String(),
			p.Virtual.Round(time.Millisecond).String(),
			events,
			eps,
			fmt.Sprintf("%.0f", p.NsPerDeviceRound),
			fmt.Sprintf("%d", p.Groups),
			fmt.Sprintf("%d", p.Delivered),
		})
	}
	return FormatTable(header, rows)
}
