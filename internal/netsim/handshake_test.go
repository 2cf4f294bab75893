package netsim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// hsWorld builds the handshake tests' world on one engine: initiator
// hs-a, server hs-b and the listener-less hs-c in Bluetooth range of
// one another, and hs-far out of range. The goroutine engine runs on a
// manual clock that never advances, at a scale that rounds every
// modeled delay to zero: nothing sleeps, and the link sweeper, whose
// wait is floored at 1 ms, never wakes. The event engine runs at the
// default scale, where a dial takes 1.28 ms, a message 30 µs and the
// sweep's first step comes 1 ms after the dial, past every handshake
// here. A Partition is then noticed only by the delivery it breaks, on
// both engines, and counted once.
func hsWorld(t *testing.T, useDES bool) (*Network, *des.Scheduler) {
	t.Helper()
	var opts []radio.Option
	var sched *des.Scheduler
	if useDES {
		sched = des.NewScheduler(1, 2)
		opts = []radio.Option{radio.WithScale(vtime.DefaultScale()), radio.WithClock(sched.Clock())}
	} else {
		opts = []radio.Option{radio.WithScale(vtime.NewScale(1e-12)), radio.WithClock(vtime.NewManual(time.Unix(0, 0)))}
	}
	env := radio.NewEnvironment(opts...)
	addStatic(t, env, "hs-a", geo.Pt(0, 0), radio.Bluetooth)
	addStatic(t, env, "hs-b", geo.Pt(3, 0), radio.Bluetooth)
	addStatic(t, env, "hs-c", geo.Pt(0, 3), radio.Bluetooth)
	addStatic(t, env, "hs-far", geo.Pt(500, 0), radio.Bluetooth)
	var net *Network
	if useDES {
		net = NewDES(env, 1, sched)
	} else {
		net = New(env, 1)
	}
	t.Cleanup(net.Close)
	return net, sched
}

// pairTracker remembers every conn pair that is live while a step runs,
// so a test can check that each one ends released: both ends' user
// holds dropped, no hold left on the pair and no operation inside it.
type pairTracker struct {
	net   *Network
	mu    sync.Mutex
	pairs map[*connPair]bool
}

func newPairTracker(net *Network) *pairTracker {
	return &pairTracker{net: net, pairs: make(map[*connPair]bool)}
}

func (p *pairTracker) see() {
	p.net.mu.Lock()
	defer p.net.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.net.conns {
		p.pairs[c.pair] = true
	}
}

// checkReleased waits for the goroutine engine's pumps to let go, then
// fails the test for any tracked pair still held.
func (p *pairTracker) checkReleased(t *testing.T) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	held := func(cp *connPair) bool {
		return cp.refs.Load() != 0 || !cp.ends[0].released.Load() || !cp.ends[1].released.Load() ||
			cp.ends[0].ops.Load() != 0 || cp.ends[1].ops.Load() != 0
	}
	for cp := range p.pairs {
		for deadline := time.Now().Add(5 * time.Second); held(cp) && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if held(cp) {
			t.Errorf("a conn pair is still held: refs=%d released=%v/%v", cp.refs.Load(), cp.ends[0].released.Load(), cp.ends[1].released.Load())
		}
	}
	p.net.mu.Lock()
	defer p.net.mu.Unlock()
	if len(p.net.conns) != 0 {
		t.Errorf("%d conns still tracked after the round", len(p.net.conns))
	}
}

// hsCase is one scripted handshake from hs-a: the partner, the replies
// the service at hs-b gives (an empty one rejects; the service serves
// as many requests as it has replies), how many round trips the
// initiator makes, whether its first step partitions the pair before
// sending the second request, and how many of its steps must be given
// an error.
type hsCase struct {
	name      string
	to        ids.DeviceID
	replies   []string
	trips     int
	partition bool
	errs      int
}

// hsRun is what one engine observed running a case.
type hsRun struct {
	steps    []string // initiator steps, in order
	errs     int      // initiator steps given an error
	requests []string // serving steps, in order
	counters Counters
}

// serveScript serves replies in order; the step after the last is nil.
func serveScript(replies []string, log *[]string, seen func()) ServeStep {
	var step func(i int) ServeStep
	step = func(i int) ServeStep {
		return func(_ ids.DeviceID, req []byte) ([]byte, ServeStep) {
			seen()
			*log = append(*log, fmt.Sprintf("request %d: %q", i+1, req))
			var reply []byte
			if replies[i] != "" {
				reply = []byte(replies[i])
			}
			if i+1 == len(replies) {
				return reply, nil
			}
			return reply, step(i + 1)
		}
	}
	return step(0)
}

// initiate is the case's handshake: requests q1..q<trips>, each step
// logging the reply or the error it was given.
func initiate(net *Network, c hsCase, run *hsRun, seen func()) Handshake {
	var step func(i int) Step
	step = func(i int) Step {
		return func(reply []byte, err error) ([]byte, Step) {
			seen()
			run.steps = append(run.steps, fmt.Sprintf("step %d: reply %q, err %v", i, reply, err))
			if err != nil {
				run.errs++
			}
			if err != nil || i == c.trips {
				return nil, nil
			}
			if c.partition {
				net.Partition("hs-a", c.to)
			}
			return []byte(fmt.Sprintf("q%d", i+1)), step(i + 1)
		}
	}
	return Handshake{To: c.to, Open: []byte("q1"), Step: step(1)}
}

// one draws h once, then ends the round.
func one(h Handshake) func() (Handshake, bool) {
	drawn := false
	return func() (Handshake, bool) {
		if drawn {
			return Handshake{}, false
		}
		drawn = true
		return h, true
	}
}

func runHandshakeCase(t *testing.T, useDES bool, c hsCase) hsRun {
	t.Helper()
	net, _ := hsWorld(t, useDES)
	tracker := newPairTracker(net)
	var run hsRun
	lis, err := net.Listen("hs-b", "hs")
	if err != nil {
		t.Fatal(err)
	}
	svc := lis.Serve(serveScript(c.replies, &run.requests, tracker.see))
	// A handshake that never ends fails the test instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	net.Round(ctx, "hs-a", radio.Bluetooth, "hs", one(initiate(net, c, &run, tracker.see)))
	svc.Stop()
	tracker.checkReleased(t)
	run.counters = net.Counters()
	return run
}

// TestHandshakeFailuresMatchAcrossEngines runs a handshake that fails
// at each point it can fail, and one that does not, on both engines:
// the initiator's steps must see the same replies and errors, with
// exactly one error per failed handshake, the serving steps the same
// requests, the transport the same Counters, and every conn pair must
// end released.
func TestHandshakeFailuresMatchAcrossEngines(t *testing.T) {
	cases := []hsCase{
		{name: "clean", to: "hs-b", replies: []string{"r1", "r2"}, trips: 2},
		{name: "no-listener", to: "hs-c", trips: 1, errs: 1},
		{name: "out-of-range", to: "hs-far", trips: 1, errs: 1},
		{name: "first-rejected", to: "hs-b", replies: []string{""}, trips: 2, errs: 1},
		{name: "second-rejected", to: "hs-b", replies: []string{"r1", ""}, trips: 2, errs: 1},
		{name: "partition", to: "hs-b", replies: []string{"r1", "r2"}, trips: 2, partition: true, errs: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			goro := runHandshakeCase(t, false, c)
			event := runHandshakeCase(t, true, c)
			for _, run := range []hsRun{goro, event} {
				if run.errs != c.errs {
					t.Errorf("%d errors in steps %q, want %d", run.errs, run.steps, c.errs)
				}
			}
			if !reflect.DeepEqual(event.steps, goro.steps) {
				t.Errorf("initiator steps: event engine %q, goroutine engine %q", event.steps, goro.steps)
			}
			if !reflect.DeepEqual(event.requests, goro.requests) {
				t.Errorf("serving steps: event engine %q, goroutine engine %q", event.requests, goro.requests)
			}
			if event.counters != goro.counters {
				t.Errorf("counters: event engine %+v, goroutine engine %+v", event.counters, goro.counters)
			}
		})
	}
}

// TestHandshakeEventCostPinned pins what one handshake of k round trips
// costs on the event engine: the round's seed, the dial completion, a
// delivery per request and per reply, and the serving end's close
// callback, which the initiator's close schedules at the same instant —
// 2k+3 events.
func TestHandshakeEventCostPinned(t *testing.T) {
	for k := 1; k <= 3; k++ {
		net, sched := hsWorld(t, true)
		replies := make([]string, k)
		for i := range replies {
			replies[i] = fmt.Sprintf("r%d", i+1)
		}
		var run hsRun
		lis, err := net.Listen("hs-b", "hs")
		if err != nil {
			t.Fatal(err)
		}
		svc := lis.Serve(serveScript(replies, &run.requests, func() {}))
		before := sched.EventsExecuted()
		net.Round(context.Background(), "hs-a", radio.Bluetooth, "hs", one(initiate(net, hsCase{to: "hs-b", trips: k}, &run, func() {})))
		events := sched.EventsExecuted() - before
		svc.Stop()
		if len(run.steps) != k || len(run.requests) != k || run.errs != 0 {
			t.Fatalf("k=%d: steps %q, requests %q", k, run.steps, run.requests)
		}
		if want := uint64(2*k + 3); events != want {
			t.Errorf("a handshake of %d round trips ran %d scheduler events, want %d", k, events, want)
		}
	}
}

// TestHandshakeEmptyRoundSchedulesNothing: a round whose first draw is
// empty dials nothing on either engine and, on the event engine,
// schedules nothing; RoundEvent then continues inside the calling event.
func TestHandshakeEmptyRoundSchedulesNothing(t *testing.T) {
	empty := func() (Handshake, bool) { return Handshake{}, false }
	for _, useDES := range []bool{false, true} {
		net, sched := hsWorld(t, useDES)
		net.Round(context.Background(), "hs-a", radio.Bluetooth, "hs", empty)
		if c := net.Counters(); c.DialsAttempted != 0 {
			t.Errorf("des=%v: an empty round attempted %d dials", useDES, c.DialsAttempted)
		}
		if sched == nil {
			continue
		}
		if n, p := sched.EventsExecuted(), sched.Pending(); n != 0 || p != 0 {
			t.Errorf("an empty round ran %d events and left %d pending, want none", n, p)
		}
		continued := false
		sched.At(0, DeviceHome("hs-a"), func(ctx *des.Ctx) {
			net.RoundEvent(ctx, "hs-a", radio.Bluetooth, "hs", empty, func(*des.Ctx) { continued = true })
			if !continued {
				t.Error("an empty RoundEvent did not continue inside the calling event")
			}
		})
		sched.Run()
		if n := sched.EventsExecuted(); n != 1 {
			t.Errorf("an empty RoundEvent ran %d events besides its caller", n-1)
		}
	}
}

// TestHandshakeConcurrentInitiatorsOneService drives one Service on the
// goroutine engine from several initiators at once, each running rounds
// of two-round-trip echo handshakes; every reply must echo its request,
// and Stop must return with every serving goroutine gone (TestMain's
// leak checker holds the package to that).
func TestHandshakeConcurrentInitiatorsOneService(t *testing.T) {
	env, net := fastWorld(t)
	addStatic(t, env, "hs-srv", geo.Pt(0, 0), radio.Bluetooth)
	var served atomic.Int64
	var echo, last ServeStep
	echo = func(_ ids.DeviceID, req []byte) ([]byte, ServeStep) { served.Add(1); return req, last }
	last = func(_ ids.DeviceID, req []byte) ([]byte, ServeStep) { served.Add(1); return req, nil }
	lis, err := net.Listen("hs-srv", "echo")
	if err != nil {
		t.Fatal(err)
	}
	svc := lis.Serve(echo)
	const initiators, handshakes = 6, 4
	devs := make([]ids.DeviceID, initiators)
	for i := range devs {
		devs[i] = ids.DeviceIDf("hs-init-%d", i)
		addStatic(t, env, devs[i], geo.Pt(float64(1+i%3), float64(i/3)), radio.Bluetooth)
	}
	var wg sync.WaitGroup
	for _, dev := range devs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drawn := 0
			net.Round(context.Background(), dev, radio.Bluetooth, "echo", func() (Handshake, bool) {
				if drawn == handshakes {
					return Handshake{}, false
				}
				drawn++
				first := []byte(fmt.Sprintf("%s/%d/a", dev, drawn))
				second := []byte(fmt.Sprintf("%s/%d/b", dev, drawn))
				return Handshake{To: "hs-srv", Open: first, Step: func(reply []byte, err error) ([]byte, Step) {
					if err != nil || string(reply) != string(first) {
						t.Errorf("%s: first reply %q, err %v", first, reply, err)
						return nil, nil
					}
					return second, func(reply []byte, err error) ([]byte, Step) {
						if err != nil || string(reply) != string(second) {
							t.Errorf("%s: second reply %q, err %v", second, reply, err)
						}
						return nil, nil
					}
				}}, true
			})
		}()
	}
	wg.Wait()
	svc.Stop()
	if got, want := served.Load(), int64(2*initiators*handshakes); got != want {
		t.Fatalf("service answered %d requests, want %d", got, want)
	}
}

// serveChain is one engine's run of TestHandshakeServeReachesEveryDialer:
// what the two serving steps and the dialers saw, in order, and the
// transport's Counters after the dials both engines make.
type serveChain struct {
	log      []string
	counters Counters
}

func runServeChain(t *testing.T, useDES bool) serveChain {
	t.Helper()
	net, sched := hsWorld(t, useDES)
	base := -1
	if sched != nil {
		sched.Start()
		t.Cleanup(sched.Stop)
		// Once the runner has popped a timer, its worker pool is up.
		sched.Clock().Sleep(time.Millisecond)
		base = runtime.NumGoroutine()
	}
	tracker := newPairTracker(net)
	var (
		mu      sync.Mutex
		run     serveChain
		serving = -1 // goroutines alive while the first step runs
	)
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		run.log = append(run.log, fmt.Sprintf(format, args...))
	}
	var second ServeStep
	first := func(from ids.DeviceID, req []byte) ([]byte, ServeStep) {
		tracker.see()
		mu.Lock()
		if serving < 0 {
			serving = runtime.NumGoroutine()
		}
		mu.Unlock()
		logf("step 1 from %s: %s", from, req)
		return []byte("r1:" + string(req)), second
	}
	second = func(from ids.DeviceID, req []byte) ([]byte, ServeStep) {
		logf("step 2 from %s: %s", from, req)
		if string(req) == "stop" {
			return nil, nil
		}
		return []byte("r2:" + string(req)), nil
	}
	lis, err := net.Listen("hs-b", "hs")
	if err != nil {
		t.Fatal(err)
	}
	svc := lis.Serve(first)
	// A dialer that never hears back fails the test instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// A blocking client from hs-a: two round trips, then a conn whose
	// second request the chain answers with nil, closing it.
	for _, last := range []string{"q2", "stop"} {
		c, err := net.Dial(ctx, "hs-a", "hs-b", radio.Bluetooth, "hs")
		if err != nil {
			t.Fatalf("blocking dial: %v", err)
		}
		for _, q := range []string{"q1", last} {
			if err := c.Send([]byte(q)); err != nil {
				t.Fatalf("send %s: %v", q, err)
			}
			reply, err := c.Recv(ctx)
			logf("client got %q, closed %v", reply, errors.Is(err, ErrConnClosed))
			if err != nil && !errors.Is(err, ErrConnClosed) {
				t.Fatalf("recv after %s: %v", q, err)
			}
		}
		_ = c.Close()
	}
	// A round from hs-c, on the goroutine engine and awaited on the DES.
	chain := func(who string) Handshake {
		return Handshake{To: "hs-b", Open: []byte("q1"), Step: func(reply []byte, err error) ([]byte, Step) {
			logf("%s got %q, err %v", who, reply, err)
			return []byte("q2"), func(reply []byte, err error) ([]byte, Step) {
				logf("%s got %q, err %v", who, reply, err)
				return nil, nil
			}
		}}
	}
	net.Round(ctx, "hs-c", radio.Bluetooth, "hs", one(chain("round")))
	run.counters = net.Counters()

	if sched != nil {
		done := make(chan struct{})
		sched.At(0, DeviceHome("hs-c"), func(ctx *des.Ctx) {
			net.RoundEvent(ctx, "hs-c", radio.Bluetooth, "hs", one(chain("round event")), func(*des.Ctx) { close(done) })
		})
		if err := sched.Await(done); err != nil {
			t.Fatalf("round event: %v", err)
		}
		if added := serving - base; added != 0 {
			t.Errorf("serving a conn ran %d goroutines beyond the scheduler's, want none", added)
		}
	}
	svc.Stop()
	tracker.checkReleased(t)
	return run
}

// TestHandshakeServeReachesEveryDialer serves one Listener.Serve chain
// of two steps to a blocking client on both engines, and to Round and,
// on the DES, RoundEvent: replies arrive in order, each step sees the
// dialing device, a nil reply closes the conn, both engines count the
// same, every conn pair ends released, and on the DES serving a conn
// runs on the scheduler alone, with no goroutine of its own.
func TestHandshakeServeReachesEveryDialer(t *testing.T) {
	goro := runServeChain(t, false)
	event := runServeChain(t, true)
	want := []string{
		"step 1 from hs-a: q1",
		`client got "r1:q1", closed false`,
		"step 2 from hs-a: q2",
		`client got "r2:q2", closed false`,
		"step 1 from hs-a: q1",
		`client got "r1:q1", closed false`,
		"step 2 from hs-a: stop",
		`client got "", closed true`,
		"step 1 from hs-c: q1",
		`round got "r1:q1", err <nil>`,
		"step 2 from hs-c: q2",
		`round got "r2:q2", err <nil>`,
	}
	if !reflect.DeepEqual(goro.log, want) {
		t.Errorf("goroutine engine:\n got %q\nwant %q", goro.log, want)
	}
	wantDES := append(append([]string(nil), want...),
		"step 1 from hs-c: q1",
		`round event got "r1:q1", err <nil>`,
		"step 2 from hs-c: q2",
		`round event got "r2:q2", err <nil>`,
	)
	if !reflect.DeepEqual(event.log, wantDES) {
		t.Errorf("event engine:\n got %q\nwant %q", event.log, wantDES)
	}
	if event.counters != goro.counters {
		t.Errorf("counters: event engine %+v, goroutine engine %+v", event.counters, goro.counters)
	}
}

// limitWorld is hsWorld with a clock that moves on the goroutine engine
// too, at the test scale, so a modeled WriteTimeout fires there.
func limitWorld(t *testing.T, useDES bool) (*Network, *des.Scheduler) {
	t.Helper()
	if useDES {
		return hsWorld(t, true)
	}
	env, net := fastWorld(t)
	addStatic(t, env, "hs-a", geo.Pt(0, 0), radio.Bluetooth)
	addStatic(t, env, "hs-b", geo.Pt(3, 0), radio.Bluetooth)
	return net, nil
}

// runServeLimit serves an echo chain with one session and a queue of
// one to blocking clients from hs-a, checking each step of
// TestHandshakeServeLimitAdmitsQueuesAndSheds.
func runServeLimit(t *testing.T, useDES bool) {
	net, sched := limitWorld(t, useDES)
	base := -1
	if sched != nil {
		sched.Start()
		t.Cleanup(sched.Stop)
		// Once the runner has popped a timer, its worker pool is up.
		sched.Clock().Sleep(time.Millisecond)
		base = runtime.NumGoroutine()
	}
	tracker := newPairTracker(net)
	var serving atomic.Int64 // goroutines alive while the first step runs
	serving.Store(-1)
	var echo ServeStep
	echo = func(_ ids.DeviceID, req []byte) ([]byte, ServeStep) {
		tracker.see()
		serving.CompareAndSwap(-1, int64(runtime.NumGoroutine()))
		return append([]byte("r:"), req...), echo
	}
	lis, err := net.Listen("hs-b", "hs")
	if err != nil {
		t.Fatal(err)
	}
	svc := lis.ServeLimit(echo, Limit{Sessions: 1, Queue: 1, Busy: []byte("busy"), WriteTimeout: time.Minute})
	// A conn that never hears back fails the test instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	dial := func() *Conn {
		t.Helper()
		c, err := net.Dial(ctx, "hs-a", "hs-b", radio.Bluetooth, "hs")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		tracker.see()
		return c
	}
	recv := func(c *Conn, want string) {
		t.Helper()
		if reply, err := c.Recv(ctx); err != nil || string(reply) != want {
			t.Fatalf("got %q, err %v; want %q", reply, err, want)
		}
	}
	send := func(c *Conn, q string) {
		t.Helper()
		if err := c.Send([]byte(q)); err != nil {
			t.Fatalf("send %s: %v", q, err)
		}
	}
	waitStats := func(what string, cond func(ServiceStats) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(svc.Stats()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: stats %+v", what, svc.Stats())
			}
		}
	}

	first := dial()
	send(first, "one")
	recv(first, "r:one")
	second := dial()
	waitStats("the second conn was never queued", func(st ServiceStats) bool { return st.Queued == 1 })
	third := dial()
	recv(third, "busy")
	if reply, err := third.Recv(ctx); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("shed conn read %q, err %v after the busy frame; want it closed", reply, err)
	}
	_ = third.Close()
	// The queued conn's request waits until the first conn closes.
	send(second, "two")
	_ = first.Close()
	recv(second, "r:two")
	if st, want := svc.Stats(), (ServiceStats{Admitted: 2, Queued: 1, Shed: 1, QueueDepthMax: 1}); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
	_ = second.Close()

	// A peer that sends requests and never reads the replies costs one
	// slow writer, and its session is free again.
	mute := dial()
	for i := 0; i < 4*sendQueueLen; i++ {
		if mute.Send([]byte("flood")) != nil {
			break
		}
	}
	waitStats("the never-reading peer was never aborted", func(st ServiceStats) bool { return st.SlowWriters == 1 })
	mute.Abort()
	after := dial()
	send(after, "after")
	recv(after, "r:after")
	_ = after.Close()
	if st, want := svc.Stats(), (ServiceStats{Admitted: 4, Queued: 1, Shed: 1, SlowWriters: 1, QueueDepthMax: 1}); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
	svc.Stop()
	tracker.checkReleased(t)
	if sched != nil {
		if added := serving.Load() - int64(base); added != 0 {
			t.Errorf("serving a conn ran %d goroutines beyond the scheduler's, want none", added)
		}
	}
}

// TestHandshakeServeLimitAdmitsQueuesAndSheds serves one session with a
// queue of one on both engines: the first conn is answered; the second
// counts as queued before it sends anything and is answered once the
// first closes; the third reads the busy frame without sending and then
// finds its conn closed; a peer that never reads its replies counts one
// slow writer and frees its session; every conn pair ends released;
// and on the DES serving runs no goroutine of its own.
func TestHandshakeServeLimitAdmitsQueuesAndSheds(t *testing.T) {
	t.Run("goroutine", func(t *testing.T) { runServeLimit(t, false) })
	t.Run("des", func(t *testing.T) { runServeLimit(t, true) })
}

// TestHandshakeServeLimitRepliesArmNoTimer: a bounded service's reply
// arms its write timeout only when it has to wait for queue room, so 40
// request/replies on one conn to a peer that reads them leave the
// clock's pending timers where the link sweeper left them. On hsWorld's
// manual clock at 1e-12 the 24 h write timeout is 86 ns: a real timer,
// which never fires.
func TestHandshakeServeLimitRepliesArmNoTimer(t *testing.T) {
	net, _ := hsWorld(t, false)
	clk := net.env.Clock().(*vtime.Manual)
	var echo ServeStep
	echo = func(_ ids.DeviceID, req []byte) ([]byte, ServeStep) { return append([]byte("r:"), req...), echo }
	lis, err := net.Listen("hs-b", "hs")
	if err != nil {
		t.Fatal(err)
	}
	svc := lis.ServeLimit(echo, Limit{Sessions: 1, Queue: 1, Busy: []byte("busy"), WriteTimeout: 24 * time.Hour})
	defer svc.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := net.Dial(ctx, "hs-a", "hs-b", radio.Bluetooth, "hs")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort()
	// The dial started the link sweeper; let it park on its timer.
	for deadline := time.Now().Add(5 * time.Second); clk.Waiters() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the link sweeper never parked on the clock")
		}
	}
	before := clk.Waiters()
	for i := 0; i < 40; i++ {
		q := fmt.Sprintf("q%d", i)
		if err := c.Send([]byte(q)); err != nil {
			t.Fatalf("send %s: %v", q, err)
		}
		if reply, err := c.Recv(ctx); err != nil || string(reply) != "r:"+q {
			t.Fatalf("got %q, err %v; want %q", reply, err, "r:"+q)
		}
	}
	if after := clk.Waiters(); after != before {
		t.Errorf("40 replies took the clock from %d pending timers to %d, want no change", before, after)
	}
}

// TestHandshakeServeLimitSeedExactOnDES: 24 event dialers on distinct
// homes dial a service with 3 sessions and a queue of 5 at one instant.
// Admission is decided in events on the listener device's home, so
// every dialer's outcome, the stats and the trace hash are the same at
// any shard and worker count.
func TestHandshakeServeLimitSeedExactOnDES(t *testing.T) {
	type result struct {
		outcomes []string
		stats    ServiceStats
		hash     uint64
	}
	const dialers = 24
	run := func(shards, workers int) result {
		sched := des.NewScheduler(1, shards)
		sched.SetWorkers(workers)
		env := radio.NewEnvironment(radio.WithScale(vtime.DefaultScale()), radio.WithClock(sched.Clock()))
		addStatic(t, env, "hs-b", geo.Pt(0, 0), radio.Bluetooth)
		net := NewDES(env, 1, sched)
		defer net.Close()
		lis, err := net.Listen("hs-b", "hs")
		if err != nil {
			t.Fatal(err)
		}
		echo := func(_ ids.DeviceID, req []byte) ([]byte, ServeStep) { return append([]byte("r:"), req...), nil }
		svc := lis.ServeLimit(echo, Limit{Sessions: 3, Queue: 5, Busy: []byte("busy")})
		outcomes := make([]string, dialers)
		for i := range outcomes {
			dev := ids.DeviceIDf("hs-d%02d", i)
			addStatic(t, env, dev, geo.Pt(float64(1+i%6), float64(i/6)), radio.Bluetooth)
			h := Handshake{To: "hs-b", Open: []byte(dev), Step: func(reply []byte, err error) ([]byte, Step) {
				outcomes[i] = fmt.Sprintf("%s: %q at %d ns, err %v", dev, reply, sched.NowNS(), err)
				return nil, nil
			}}
			sched.At(0, DeviceHome(dev), func(ctx *des.Ctx) {
				net.RoundEvent(ctx, dev, radio.Bluetooth, "hs", one(h), func(*des.Ctx) {})
			})
		}
		sched.Run()
		svc.Stop()
		return result{outcomes, svc.Stats(), sched.TraceHash()}
	}
	ref := run(1, 1)
	answered, busy := 0, 0
	for _, o := range ref.outcomes {
		switch {
		case strings.Contains(o, `"r:hs-d`):
			answered++
		case strings.Contains(o, `"busy"`):
			busy++
		}
	}
	if answered != 8 || busy != 16 {
		t.Errorf("%d answered and %d shed, want 8 and 16: %q", answered, busy, ref.outcomes)
	}
	if want := (ServiceStats{Admitted: 8, Queued: 5, Shed: 16, QueueDepthMax: 5}); ref.stats != want {
		t.Errorf("stats %+v, want %+v", ref.stats, want)
	}
	for _, shards := range []int{1, 4, 16} {
		for _, workers := range []int{1, 4} {
			got := run(shards, workers)
			if !reflect.DeepEqual(got.outcomes, ref.outcomes) {
				t.Errorf("%d shards, %d workers: outcomes\n%q\nwant\n%q", shards, workers, got.outcomes, ref.outcomes)
			}
			if got.stats != ref.stats || got.hash != ref.hash {
				t.Errorf("%d shards, %d workers: stats %+v hash %#x, want %+v %#x", shards, workers, got.stats, got.hash, ref.stats, ref.hash)
			}
		}
	}
}
