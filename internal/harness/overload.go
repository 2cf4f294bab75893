package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/community"
	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/peerhood"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/vtime"
)

// OverloadPoint is one row of the overload experiment: a neighborhood
// of Devices peers whose servers run with an explicit, small admission
// capacity, while a load generator offers Load× that capacity in raw
// sessions against one hot server. The point records how the server
// degraded (admitted / queued / shed, bounded queue depth) and what an
// innocent observer's steady group round cost while the hot peer was
// under fire.
type OverloadPoint struct {
	Devices  int
	Load     int
	Capacity int
	// Engine is "goroutine" or "des" (event-native load drivers on the
	// discrete-event engine).
	Engine string
	// SteadyRound is the slowest of the observer's measured steady
	// RefreshGroups rounds (real wall time) under offered load.
	SteadyRound time.Duration
	// Server is the hot server's admission accounting.
	Server community.ServerStats
	// ObserverDegraded is how many of the observer's fan-outs ran on
	// partial results.
	ObserverDegraded uint64
}

// OverloadConfig parameterizes the sweep.
type OverloadConfig struct {
	// Scale is the latency scale (default 1e-4).
	Scale vtime.Scale
	// Devices are the neighborhood sizes (default 100, 400, 1000).
	Devices []int
	// Loads are offered-session multiples of Capacity (default 1, 4, 10).
	Loads []int
	// Capacity is the hot server's MaxSessions (default 8 — small and
	// explicit, so overload is reachable without thousands of sessions).
	Capacity int
	// QueueDepth is the hot server's admission queue bound (default 16).
	QueueDepth int
	// Rounds is how many steady observer rounds each point measures
	// (default 3).
	Rounds int
	// Engine selects the transport. Each offered session is one
	// loadSession round plan, walked by a goroutine with Network.Round
	// on the goroutine engine and by a self-rescheduling RoundEvent
	// cascade on the discrete-event engine, so there offered load costs
	// O(1) goroutines at any multiple. The measured observer stays the
	// blocking client, in integrated mode as in the delta sweep.
	Engine
}

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.Scale.Factor() == 1 || c.Scale.Factor() == 0 {
		c.Scale = vtime.NewScale(1e-4)
	}
	if len(c.Devices) == 0 {
		c.Devices = []int{100, 400, 1000}
	}
	if len(c.Loads) == 0 {
		c.Loads = []int{1, 4, 10}
	}
	if c.Capacity <= 0 {
		c.Capacity = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	return c
}

// RunOverload runs the sweep and returns one point per (devices, load)
// pair.
func RunOverload(cfg OverloadConfig) ([]OverloadPoint, error) {
	cfg = cfg.withDefaults()
	out := make([]OverloadPoint, 0, len(cfg.Devices)*len(cfg.Loads))
	for _, n := range cfg.Devices {
		for _, load := range cfg.Loads {
			p, err := runOverloadPoint(cfg, n, load)
			if err != nil {
				return nil, fmt.Errorf("harness: overload point %d×%d: %w", n, load, err)
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// loadSettle is how long (real time) the load generator runs before the
// observer's measured rounds start, so admission reaches steady state.
const loadSettle = 50 * time.Millisecond

func runOverloadPoint(cfg OverloadConfig, peers, load int) (OverloadPoint, error) {
	if peers < 2 {
		return OverloadPoint{}, fmt.Errorf("need at least two peers")
	}
	builder := scenario.NewBuilder().WithScale(cfg.Scale).WithSeed(int64(peers)).
		WithServerOptions(community.ServerOptions{
			MaxSessions: cfg.Capacity,
			QueueDepth:  cfg.QueueDepth,
		})
	cfg.build(builder)
	side := 1 + peers/4
	for i := 0; i < peers; i++ {
		builder.AddPeer(scenario.PeerSpec{
			Member:    ids.MemberID(fmt.Sprintf("peer-%04d", i)),
			Position:  geo.Pt(float64(i%side)*0.01, float64(i/side)*0.01),
			Interests: []string{"football"},
		})
	}
	builder.AddPeer(scenario.PeerSpec{
		Member:    "active",
		Device:    "active-dev",
		Position:  geo.Pt(0.005, 0.005),
		Interests: []string{"football"},
	})
	d, err := builder.Build()
	if err != nil {
		return OverloadPoint{}, err
	}
	defer d.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	active := d.MustPeer("active")
	if err := active.Daemon.RefreshNow(ctx); err != nil {
		return OverloadPoint{}, err
	}
	// Warm round: the observer's persistent sessions are admitted while
	// the world is calm — established service survives the overload;
	// it is fresh arrivals that get queued and shed.
	if _, err := active.Client.RefreshGroups(ctx); err != nil {
		return OverloadPoint{}, err
	}

	hot := d.MustPeer("peer-0000")
	hotDev := hot.Daemon.Device()
	point := OverloadPoint{Devices: peers, Load: load, Capacity: cfg.Capacity, Engine: cfg.name()}

	// Load generator: load×capacity concurrent raw sessions against the
	// hot server, each pinging in a tight loop and re-dialing whenever
	// it is shed. Sourced from a handful of neighbor devices so no
	// single radio serializes the pressure.
	offered := load * cfg.Capacity
	gens := 4
	if peers < gens {
		gens = peers
	}
	stopLoad := startLoad(ctx, d, offered, gens, hotDev)
	vtime.Real().Sleep(loadSettle)

	// Measured steady rounds while the hot peer is under fire.
	for r := 0; r < cfg.Rounds; r++ {
		sw := vtime.NewStopwatch(vtime.Real(), vtime.Identity())
		if _, err := active.Client.RefreshGroups(ctx); err != nil {
			stopLoad()
			return OverloadPoint{}, err
		}
		if wall := sw.Elapsed(); wall > point.SteadyRound {
			point.SteadyRound = wall
		}
	}
	stopLoad()

	point.Server = hot.Server.Stats()
	point.ObserverDegraded = active.Client.Stats().FanoutsDegraded
	return point, nil
}

// olRedialDelay is the modeled pause between one load session and the
// next dial, after the server sheds a session or a dial fails.
const olRedialDelay = 20 * time.Millisecond

// loadSession is one offered load session as a round plan: each round
// is one ping handshake with the hot server, whose step pings again
// until an error (the server shedding the session) or the stop flag
// ends it, and rounds run olRedialDelay apart.
type loadSession struct {
	net   *netsim.Network
	src   ids.DeviceID
	hot   ids.DeviceID
	port  string
	ping  []byte
	retry time.Duration
	stop  *atomic.Bool
}

// plan draws one round: the ping handshake, unless the load stopped.
func (s *loadSession) plan() func() (netsim.Handshake, bool) {
	drawn := false
	return func() (netsim.Handshake, bool) {
		if drawn || s.stop.Load() {
			return netsim.Handshake{}, false
		}
		drawn = true
		return netsim.Handshake{To: s.hot, Open: s.ping, Step: s.pong}, true
	}
}

// pong takes a reply to a ping and pings again.
func (s *loadSession) pong(_ []byte, err error) ([]byte, netsim.Step) {
	if err != nil || s.stop.Load() {
		return nil, nil
	}
	return s.ping, s.pong
}

// run walks the plan with blocking rounds until ctx ends.
func (s *loadSession) run(ctx context.Context, clock vtime.Clock) {
	for ctx.Err() == nil {
		s.net.Round(ctx, s.src, radio.Bluetooth, s.port, s.plan())
		select {
		case <-ctx.Done():
		case <-clock.After(s.retry):
		}
	}
}

// runEvent walks the plan as an event cascade that re-arms itself
// until the stop flag is set, then calls done.
func (s *loadSession) runEvent(ctx *des.Ctx, done func()) {
	if s.stop.Load() {
		done()
		return
	}
	s.net.RoundEvent(ctx, s.src, radio.Bluetooth, s.port, s.plan(), func(ctx *des.Ctx) {
		ctx.At(s.retry, netsim.DeviceHome(s.src), func(ctx *des.Ctx) { s.runEvent(ctx, done) })
	})
}

// startLoad starts one loadSession per offered session against hotDev
// and returns the stop function: it sets the stop flag, cancels the
// blocking rounds' context and waits for every session to notice. A
// session waiting on a reply always has the reply or a teardown coming,
// so the wait ends.
func startLoad(ctx context.Context, d *scenario.Deployment, offered, gens int, hotDev ids.DeviceID) (stop func()) {
	loadCtx, cancel := context.WithCancel(ctx)
	var flag atomic.Bool
	var wg sync.WaitGroup
	ping := community.MarshalRequest(community.Request{Op: community.OpPing})
	port := peerhood.ServicePort(ids.ServiceName(community.ServiceName))
	retry := d.Env.Scale().ToReal(olRedialDelay)
	for i := 0; i < offered; i++ {
		s := &loadSession{
			net: d.Net, src: d.MustPeer(ids.MemberID(fmt.Sprintf("peer-%04d", 1+i%gens))).Daemon.Device(),
			hot: hotDev, port: port, ping: ping, retry: retry, stop: &flag,
		}
		wg.Add(1)
		if d.Sched != nil {
			d.Sched.At(0, netsim.DeviceHome(s.src), func(ctx *des.Ctx) { s.runEvent(ctx, wg.Done) })
			continue
		}
		go func() {
			defer wg.Done()
			s.run(loadCtx, d.Env.Clock())
		}()
	}
	return func() {
		flag.Store(true)
		cancel()
		wg.Wait()
	}
}

// FormatOverload renders the sweep as a table.
func FormatOverload(points []OverloadPoint) string {
	header := []string{"Devices", "Load", "Engine", "Steady round", "Admitted", "Queued", "Shed", "Depth max", "Slow writers", "Degraded fanouts"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		engine := p.Engine
		if engine == "" {
			engine = "goroutine"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Devices),
			fmt.Sprintf("%d×", p.Load),
			engine,
			p.SteadyRound.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%d", p.Server.Admitted),
			fmt.Sprintf("%d", p.Server.Queued),
			fmt.Sprintf("%d", p.Server.Shed),
			fmt.Sprintf("%d", p.Server.QueueDepthMax),
			fmt.Sprintf("%d", p.Server.SlowWriters),
			fmt.Sprintf("%d", p.ObserverDegraded),
		})
	}
	return FormatTable(header, rows)
}
