package netsim

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// countGoroutinesIn returns how many live goroutines have the given
// function in their stack.
func countGoroutinesIn(fn string) int {
	buf := make([]byte, 1<<22)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), fn)
}

// waitSweepers waits, for up to 5 s, until exactly want sweepLinks
// goroutines are running process-wide.
func waitSweepers(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for countGoroutinesIn(".sweepLinks") != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: sweepLinks goroutines = %d, want %d",
				what, countGoroutinesIn(".sweepLinks"), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLinkSweepIsSharedAcrossConnections is the O(1)-watchdog proof:
// with 500 idle connections open, exactly one sweepLinks goroutine is
// running — the goroutine count per connection is the two pumps, not a
// per-connection watchdog ticker.
func TestLinkSweepIsSharedAcrossConnections(t *testing.T) {
	// The count is process-wide: let a sweeper an earlier test's network
	// left retiring finish first.
	waitSweepers(t, 0, "before dialing")
	env := radio.NewEnvironment(radio.WithScale(vtime.NewScale(1e-4)))
	net := New(env, 1)
	defer net.Close()
	addStatic(t, env, "srv", geo.Pt(0, 0), radio.WLAN)
	addStatic(t, env, "cli", geo.Pt(5, 0), radio.WLAN)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	l, err := net.Listen("srv", "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const idleConns = 500
	accepted := make(chan *Conn, idleConns)
	go func() {
		for {
			c, err := l.Accept(ctx)
			if err != nil {
				return
			}
			accepted <- c
		}
	}()

	conns := make([]*Conn, 0, idleConns)
	for i := 0; i < idleConns; i++ {
		c, err := net.Dial(ctx, "cli", "srv", radio.WLAN, "svc")
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		conns = append(conns, c)
	}
	defer func() {
		for _, c := range conns {
			c.Abort()
		}
	}()

	if got := countGoroutinesIn(".sweepLinks"); got != 1 {
		t.Fatalf("sweepLinks goroutines with %d idle conns = %d, want exactly 1", idleConns, got)
	}
	// Sanity: the pumps really are per-connection, so the sweep being
	// shared is not an artifact of nothing running at all.
	if got := countGoroutinesIn("(*Conn).pump"); got < idleConns {
		t.Fatalf("pump goroutines = %d, want >= %d", got, idleConns)
	}
}

// TestSweepRetiresWhenIdleAndRestarts verifies the sweeper's lifecycle:
// it exits once the last connection dies and a later dial starts a
// fresh one.
func TestSweepRetiresWhenIdleAndRestarts(t *testing.T) {
	env := radio.NewEnvironment(radio.WithScale(vtime.NewScale(1e-4)))
	net := New(env, 1)
	defer net.Close()
	addStatic(t, env, "a", geo.Pt(0, 0), radio.WLAN)
	addStatic(t, env, "b", geo.Pt(5, 0), radio.WLAN)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	l, err := net.Listen("b", "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(ctx); err != nil {
				return
			}
		}
	}()

	dialOnce := func() {
		t.Helper()
		c, err := net.Dial(ctx, "a", "b", radio.WLAN, "svc")
		if err != nil {
			t.Fatal(err)
		}
		c.Abort()
	}
	dialOnce()
	waitSweepers(t, 0, "after last conn died")
	c, err := net.Dial(ctx, "a", "b", radio.WLAN, "svc")
	if err != nil {
		t.Fatal(err)
	}
	waitSweepers(t, 1, "after redial")
	c.Abort()
}

// TestSweepBreaksIdleConnOnDeparture re-pins the ErrLinkLost semantics
// the per-connection watchdog used to provide: an idle connection whose
// peer walks out of range fails with ErrLinkLost on both ends.
func TestSweepBreaksIdleConnOnDeparture(t *testing.T) {
	env := radio.NewEnvironment(radio.WithScale(vtime.NewScale(1e-3)))
	net := New(env, 1)
	defer net.Close()
	addStatic(t, env, "a", geo.Pt(0, 0), radio.Bluetooth)
	addStatic(t, env, "b", geo.Pt(5, 0), radio.Bluetooth)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	l, err := net.Listen("b", "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	acceptCh := make(chan *Conn, 1)
	go func() {
		c, err := l.Accept(ctx)
		if err == nil {
			acceptCh <- c
		}
	}()
	c, err := net.Dial(ctx, "a", "b", radio.Bluetooth, "svc")
	if err != nil {
		t.Fatal(err)
	}
	server := <-acceptCh

	// The peer walks away; neither end sends anything.
	if err := env.SetModel("b", mobility.Static{At: geo.Pt(1000, 0)}); err != nil {
		t.Fatal(err)
	}
	for _, end := range []*Conn{c, server} {
		if _, err := end.Recv(ctx); err == nil || !strings.Contains(err.Error(), "link lost") {
			t.Fatalf("idle conn error = %v, want ErrLinkLost", err)
		}
	}
}

// sweepWorld is a Bluetooth world of two devices, "a" and "b", whose
// link sweeps run only when the test steps them, through the engine's
// own sweeper: the goroutine engine rides a manual clock, the event
// engine a scheduler nobody starts. Connection setup is free, so dials
// complete without moving time.
type sweepWorld struct {
	env      *radio.Environment
	net      *Network
	accepted chan *Conn
	step     func() // runs exactly one sweep and returns once it is done
}

func newSweepWorld(t *testing.T, useDES bool, bModel mobility.Model) *sweepWorld {
	t.Helper()
	phy := radio.DefaultPHY(radio.Bluetooth)
	phy.ConnectSetup = 0
	w := &sweepWorld{accepted: make(chan *Conn)}
	if useDES {
		sched := des.NewScheduler(1, 1)
		w.env = radio.NewEnvironment(radio.WithClock(sched.Clock()), radio.WithPHY(phy))
		w.net = NewDES(w.env, 1, sched)
		var at time.Duration
		w.step = func() {
			at += linkCheckInterval
			sched.RunUntil(at)
		}
	} else {
		clk := vtime.NewManual(time.Unix(0, 0))
		w.env = radio.NewEnvironment(radio.WithClock(clk), radio.WithPHY(phy))
		w.net = New(w.env, 1)
		// The sweeper is the only clock waiter in an idle world: it is
		// parked when Waiters reads 1, and back on its timer once a step
		// it was woken for has finished.
		parked := func() {
			t.Helper()
			deadline := time.Now().Add(5 * time.Second)
			for clk.Waiters() != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("link sweeper not parked on the clock (%d waiters)", clk.Waiters())
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		w.step = func() {
			parked()
			clk.Advance(linkCheckInterval)
			parked()
		}
	}
	t.Cleanup(w.net.Close)
	addStatic(t, w.env, "a", geo.Pt(0, 0), radio.Bluetooth)
	if err := w.env.Add("b", bModel, radio.Bluetooth); err != nil {
		t.Fatal(err)
	}
	l, err := w.net.Listen("b", "svc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	go func() {
		for {
			c, err := l.Accept(context.Background())
			if err != nil {
				return
			}
			w.accepted <- c
		}
	}()
	return w
}

// dial opens an idle a -> b connection and returns both ends.
func (w *sweepWorld) dial(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	c, err := w.net.Dial(context.Background(), "a", "b", radio.Bluetooth, "svc")
	if err != nil {
		t.Fatal(err)
	}
	server := <-w.accepted
	t.Cleanup(func() {
		c.Abort()
		server.Abort()
	})
	return c, server
}

// checks reads how many links the network's sweeps have checked.
func (w *sweepWorld) checks() uint64 {
	w.net.mu.Lock()
	defer w.net.mu.Unlock()
	return w.net.sweepChecks
}

// requireLinkLost asserts that every end is dead with ErrLinkLost.
func requireLinkLost(t *testing.T, ends ...*Conn) {
	t.Helper()
	for _, end := range ends {
		if end.Alive() {
			t.Fatalf("%s end still alive, want it failed with ErrLinkLost", end.Local())
		}
		if _, err := end.Recv(context.Background()); !errors.Is(err, ErrLinkLost) {
			t.Fatalf("%s end: Recv = %v, want ErrLinkLost", end.Local(), err)
		}
	}
}

var sweepEngines = []struct {
	name   string
	useDES bool
}{{"goroutine", false}, {"des", true}}

// TestSweepFailsIdleConnAfterEveryLinkChange pins the change-driven
// sweep's exactness: once a full sweep has verified a static world, a
// further sweep checks nothing, yet every change that can break a link
// between static devices forces the next sweep to find the dead conn.
func TestSweepFailsIdleConnAfterEveryLinkChange(t *testing.T) {
	changes := []struct {
		name   string
		change func(t *testing.T, w *sweepWorld)
	}{
		{"set-model", func(t *testing.T, w *sweepWorld) {
			if err := w.env.SetModel("b", mobility.Static{At: geo.Pt(1000, 0)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"power-off", func(t *testing.T, w *sweepWorld) {
			if err := w.env.SetPowered("b", false); err != nil {
				t.Fatal(err)
			}
		}},
		{"remove", func(t *testing.T, w *sweepWorld) { w.env.Remove("b") }},
		{"partition", func(t *testing.T, w *sweepWorld) { w.net.Partition("a", "b") }},
		{"fault-partition-window", func(t *testing.T, w *sweepWorld) {
			w.net.SetFaults(faults.New(1).AddPartition(faults.PartitionWindow{
				GroupA: []ids.DeviceID{"a"}, GroupB: []ids.DeviceID{"b"}, End: time.Hour,
			}))
		}},
		{"fault-flap", func(t *testing.T, w *sweepWorld) {
			w.net.SetFaults(faults.New(1).SetLink(faults.LinkProfile{FlapRate: 1}))
		}},
	}
	for _, engine := range sweepEngines {
		for _, tc := range changes {
			t.Run(engine.name+"/"+tc.name, func(t *testing.T) {
				w := newSweepWorld(t, engine.useDES, mobility.Static{At: geo.Pt(5, 0)})
				client, server := w.dial(t)
				w.step()
				w.step()
				if got := w.checks(); got != 1 {
					t.Fatalf("two sweeps of an unchanged static world checked %d links, want 1", got)
				}
				tc.change(t, w)
				w.step()
				requireLinkLost(t, client, server)
			})
		}
	}
}

// TestSweepFailsIdleConnWhenPeerWalksAway covers the one link change no
// world mutation announces: a moving peer walks out of range on its
// own, so while it moves every sweep re-checks every conn.
func TestSweepFailsIdleConnWhenPeerWalksAway(t *testing.T) {
	for _, engine := range sweepEngines {
		t.Run(engine.name, func(t *testing.T) {
			// b leaves the 10 m Bluetooth range after 5 modeled seconds.
			w := newSweepWorld(t, engine.useDES, mobility.Linear{Start: geo.Pt(5, 0), Velocity: geo.Vec(1, 0)})
			client, server := w.dial(t)
			gen, _ := w.env.Generation()
			steps := uint64(0)
			for client.Alive() && steps < 20 {
				w.step()
				steps++
			}
			if got, _ := w.env.Generation(); got != gen {
				t.Fatalf("world generation moved %d -> %d; the walk must need no mutation", gen, got)
			}
			requireLinkLost(t, client, server)
			if steps != 6 {
				t.Errorf("link died at sweep %d, want 6 (first sweep past 5 modeled seconds)", steps)
			}
			if got := w.checks(); got != steps {
				t.Errorf("%d sweeps with a moving peer checked %d links, want one each", steps, got)
			}
		})
	}
}

// TestSweepChecksOnlyNewConnsInStaticWorld is the sweep's cost pin: in
// a static world one full sweep verifies every idle conn, a further
// sweep checks none, and a conn dialed afterwards is checked exactly
// once.
func TestSweepChecksOnlyNewConnsInStaticWorld(t *testing.T) {
	const idleConns = 500
	for _, engine := range sweepEngines {
		t.Run(engine.name, func(t *testing.T) {
			w := newSweepWorld(t, engine.useDES, mobility.Static{At: geo.Pt(5, 0)})
			for i := 0; i < idleConns; i++ {
				w.dial(t)
			}
			w.step()
			if got := w.checks(); got != idleConns {
				t.Fatalf("first sweep checked %d links, want %d", got, idleConns)
			}
			w.step()
			if got := w.checks() - idleConns; got != 0 {
				t.Fatalf("a sweep of an unchanged static world checked %d links, want 0", got)
			}
			w.dial(t)
			w.step()
			w.step()
			if got := w.checks() - idleConns; got != 1 {
				t.Fatalf("a conn dialed after the full sweep was checked %d times over two sweeps, want 1", got)
			}
		})
	}
}

// TestBroadcastTargetsMatchPerPairOracle is the broadcast half of the
// differential suite: over seeded randomized worlds the grid-backed
// target selection must deliver to exactly the subscribers the per-pair
// linkUp oracle admits (loss disabled, buffers empty, so delivery is
// deterministic).
func TestBroadcastTargetsMatchPerPairOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := vtime.NewManual(time.Unix(0, 0))
		env := radio.NewEnvironment(radio.WithClock(clk))
		net := New(env, seed)

		area := 30 + rng.Float64()*150
		n := 5 + rng.Intn(30)
		devs := make([]ids.DeviceID, 0, n)
		for i := 0; i < n; i++ {
			id := ids.DeviceIDf("d%03d", i)
			techs := []radio.Technology{radio.Bluetooth, radio.WLAN, radio.GPRS}[:1+rng.Intn(3)]
			at := geo.Pt(rng.Float64()*area, rng.Float64()*area)
			if err := env.Add(id, mobility.Static{At: at}, techs...); err != nil {
				t.Fatal(err)
			}
			devs = append(devs, id)
		}
		subs := make(map[ids.DeviceID]*BroadcastSub)
		for _, id := range devs {
			if rng.Intn(4) == 0 {
				continue // not everyone subscribes
			}
			s, err := net.SubscribeBroadcast(id, "disc")
			if err != nil {
				t.Fatal(err)
			}
			subs[id] = s
		}
		for _, id := range devs {
			if rng.Intn(6) == 0 {
				if err := env.SetPowered(id, false); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(6) == 0 {
				if err := env.SetCoverage(id, false); err != nil {
					t.Fatal(err)
				}
			}
		}
		if rng.Intn(2) == 0 {
			net.Partition(devs[rng.Intn(n)], devs[rng.Intn(n)])
		}

		// sleepModeled parks on the manual clock; advance it from the
		// side so SendBroadcast completes. The world is static and all
		// toggles happened above, so reachability is time-invariant and
		// the concurrent advancing cannot change the target set.
		stop := make(chan struct{})
		advancerDone := make(chan struct{})
		go func() {
			defer close(advancerDone)
			for {
				select {
				case <-stop:
					return
				default:
					clk.Advance(100 * time.Millisecond)
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()

		for _, tech := range radio.AllTechnologies() {
			from := devs[rng.Intn(n)]
			delivered, err := net.SendBroadcast(from, tech, "disc", []byte("probe"))
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[ids.DeviceID]bool)
			for id := range subs {
				if net.linkUp(net.node(from), net.node(id), tech) {
					want[id] = true
				}
			}
			if delivered != len(want) {
				t.Fatalf("seed %d tech %v: delivered %d copies, oracle wants %d", seed, tech, delivered, len(want))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			for id, s := range subs {
				if !want[id] {
					continue
				}
				b, err := s.Recv(ctx)
				if err != nil {
					t.Fatalf("seed %d tech %v: subscriber %s missing its copy: %v", seed, tech, id, err)
				}
				if b.From != from || b.Tech != tech {
					t.Fatalf("seed %d: wrong datagram %+v", seed, b)
				}
			}
			cancel()
		}
		close(stop)
		<-advancerDone
		net.Close()
	}
}

// TestLinkFailureCountedOncePerConn loses the link under one conn at a
// time, each with a message in flight, and each conn must count one
// link failure however the paths that can notice the loss race. In the
// partition leg a Partition severs the link mid-transfer, so the
// transfer (the pump's sleep, or the delivery event) and the link sweep
// may both find it. In the close leg a fault plan resets every message
// and the sender closes right after sending, as a server closes after
// its reply: the loss must be counted before Close, which waits for the
// flush, ends the conn.
func TestLinkFailureCountedOncePerConn(t *testing.T) {
	const conns = 300
	msg := make([]byte, 4000)
	for _, eng := range sweepEngines {
		for _, leg := range []string{"partition", "close"} {
			t.Run(eng.name+"/"+leg, func(t *testing.T) {
				opts := []radio.Option{WithTestScale()}
				var sched *des.Scheduler
				if eng.useDES {
					sched = des.NewScheduler(1, 2)
					opts = append(opts, radio.WithClock(sched.Clock()))
				}
				env := radio.NewEnvironment(opts...)
				var net *Network
				if eng.useDES {
					net = NewDES(env, 1, sched)
					sched.Start()
					t.Cleanup(sched.Stop)
				} else {
					net = New(env, 1)
				}
				t.Cleanup(net.Close)
				if leg == "close" {
					net.SetFaults(faults.New(1).SetLink(faults.LinkProfile{Loss: 1}))
				}
				addStatic(t, env, "a", geo.Pt(0, 0), radio.Bluetooth)
				addStatic(t, env, "b", geo.Pt(5, 0), radio.Bluetooth)
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				l, err := net.Listen("b", "svc")
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				for i := 0; i < conns; i++ {
					accepted := make(chan *Conn, 1)
					go func() {
						c, _ := l.Accept(ctx)
						accepted <- c
					}()
					c, err := net.Dial(ctx, "a", "b", radio.Bluetooth, "svc")
					if err != nil {
						t.Fatalf("dial %d: %v", i, err)
					}
					server := <-accepted
					if server == nil {
						t.Fatalf("accept %d failed", i)
					}
					if err := c.Send(msg); err != nil {
						t.Fatalf("send %d: %v", i, err)
					}
					if leg == "close" {
						c.Close()
					} else {
						net.Partition("a", "b")
					}
					for err == nil {
						_, err = server.Recv(ctx)
					}
					if !errors.Is(err, ErrLinkLost) {
						t.Fatalf("conn %d ended with %v, want ErrLinkLost", i, err)
					}
					if leg == "partition" {
						net.Heal("a", "b")
						c.Abort()
					}
					server.Abort()
				}
				if got := net.Counters().LinkFailures; got != conns {
					t.Fatalf("%d conns lost their link, counted %d link failures", conns, got)
				}
			})
		}
	}
}
