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
	// Engine selects the transport. On the discrete-event engine the
	// load generator runs as event-native session cascades: each
	// offered session is a self-rescheduling
	// DialEvent/SendEvent/RecvEvent chain on the scheduler, so offered
	// load costs O(1) goroutines at any multiple. The measured observer
	// stays the blocking client, in integrated mode as in the delta
	// sweep.
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
	// single radio serializes the pressure. On the goroutine engine
	// each session is a goroutine; on the event engine each session is
	// an olSession event cascade.
	offered := load * cfg.Capacity
	gens := 4
	if peers < gens {
		gens = peers
	}
	var stopLoad func()
	ping := community.MarshalRequest(community.Request{Op: community.OpPing})
	if cfg.DES {
		stopLoad = startEventLoad(d, offered, gens, hotDev, ping)
	} else {
		loadCtx, cancelLoad := context.WithCancel(ctx)
		var wg sync.WaitGroup
		for i := 0; i < offered; i++ {
			src := d.MustPeer(ids.MemberID(fmt.Sprintf("peer-%04d", 1+i%gens))).Lib
			wg.Add(1)
			go func() {
				defer wg.Done()
				for loadCtx.Err() == nil {
					conn, err := src.Connect(loadCtx, hotDev, community.ServiceName)
					if err != nil {
						continue
					}
					for loadCtx.Err() == nil {
						if err := conn.Send(ping); err != nil {
							break
						}
						if _, err := conn.Recv(loadCtx); err != nil {
							break
						}
					}
					conn.Abort()
				}
			}()
		}
		stopLoad = func() {
			cancelLoad()
			wg.Wait()
		}
	}
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

// olRedialDelay is the modeled pause before a shed or failed session
// dials again — the event-engine stand-in for the goroutine loop's
// natural re-dial latency.
const olRedialDelay = 20 * time.Millisecond

// olSession is one offered load session as an event cascade — the
// event-native translation of the goroutine load generator's
// dial/ping/redial loop, in the engine-scale driver discipline: every
// step is a DialEvent/SendEvent/RecvEvent continuation scheduled on
// the session's home, so offered load needs no goroutines however
// large the multiple. A session that is shed (error at any step)
// schedules its re-dial after olRedialDelay instead of recursing
// inside the same event.
type olSession struct {
	net   *netsim.Network
	src   ids.DeviceID
	hot   ids.DeviceID
	home  uint64
	port  string
	ping  []byte
	retry time.Duration
	stop  *atomic.Bool
	done  *sync.WaitGroup
}

// run dials the hot server; retirement (stop flag) is checked at every
// continuation so stopEventLoad's Wait returns once in-flight
// exchanges drain.
func (s *olSession) run(ctx *des.Ctx) {
	if s.stop.Load() {
		s.done.Done()
		return
	}
	s.net.DialEvent(ctx, s.src, s.hot, radio.Bluetooth, s.port, func(ctx *des.Ctx, c *netsim.Conn, err error) {
		if err != nil {
			s.later(ctx)
			return
		}
		s.exchange(ctx, c)
	})
}

// later schedules the next dial attempt; synchronous dial failures
// must not recurse inside the calling event.
func (s *olSession) later(ctx *des.Ctx) {
	if s.stop.Load() {
		s.done.Done()
		return
	}
	ctx.At(s.retry, s.home, s.run)
}

// exchange is the ping loop: send, await the reply in a parked
// RecvEvent, repeat until the server sheds the session.
func (s *olSession) exchange(ctx *des.Ctx, c *netsim.Conn) {
	if s.stop.Load() {
		c.CloseEvent(ctx)
		s.done.Done()
		return
	}
	if c.SendEvent(ctx, s.ping) != nil {
		c.CloseEvent(ctx)
		s.later(ctx)
		return
	}
	c.RecvEvent(ctx, func(ctx *des.Ctx, _ []byte, err error) {
		if err != nil {
			c.CloseEvent(ctx)
			s.later(ctx)
			return
		}
		s.exchange(ctx, c)
	})
}

// startEventLoad seeds one olSession cascade per offered session on
// the deployment's scheduler and returns the stop function: it flips
// the shared flag and waits for every cascade to notice it at its next
// continuation — a parked session always has either a reply or a
// teardown coming to wake it, so the wait terminates.
func startEventLoad(d *scenario.Deployment, offered, gens int, hotDev ids.DeviceID, ping []byte) (stop func()) {
	retry := d.Env.Scale().ToReal(olRedialDelay)
	port := peerhood.ServicePort(ids.ServiceName(community.ServiceName))
	var flag atomic.Bool
	var done sync.WaitGroup
	for i := 0; i < offered; i++ {
		src := d.MustPeer(ids.MemberID(fmt.Sprintf("peer-%04d", 1+i%gens))).Daemon.Device()
		s := &olSession{
			net: d.Net, src: src, hot: hotDev,
			home: netsim.DeviceHome(src), port: port, ping: ping,
			retry: retry, stop: &flag, done: &done,
		}
		done.Add(1)
		d.Sched.At(0, s.home, s.run)
	}
	return func() {
		flag.Store(true)
		done.Wait()
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
