package community

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/peerhood"
	"repro/internal/profile"
	"repro/internal/radio"
)

// addNodeWith is addNode with explicit server overload limits.
func (w *testWorld) addNodeWith(t *testing.T, member ids.MemberID, at geo.Point, opts ServerOptions, interests ...string) *node {
	t.Helper()
	dev := ids.DeviceID("dev-" + string(member))
	if err := w.env.Add(dev, mobility.Static{At: at}, radio.Bluetooth, radio.WLAN); err != nil {
		t.Fatal(err)
	}
	daemon, err := peerhood.NewDaemon(peerhood.Config{Device: dev, Network: w.net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(daemon.Stop)
	lib := peerhood.NewLibrary(daemon)
	store := profile.NewStore(nil)
	if err := store.CreateAccount(member, "pw-"+string(member)); err != nil {
		t.Fatal(err)
	}
	if err := store.Login(member, "pw-"+string(member)); err != nil {
		t.Fatal(err)
	}
	for _, term := range interests {
		if err := store.AddInterest(member, term); err != nil {
			t.Fatal(err)
		}
	}
	server, err := NewServerWith(lib, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Stop)
	client, err := NewClient(lib, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	n := &node{dev: dev, member: member, daemon: daemon, lib: lib, store: store, server: server, client: client}
	w.nodes[member] = n
	return n
}

// pingConn runs one PS_PING exchange over a raw session.
func pingConn(ctx context.Context, conn *netsim.Conn, tag string) error {
	if err := conn.Send(MarshalRequest(Request{Op: OpPing, Args: []string{tag}})); err != nil {
		return err
	}
	raw, err := conn.Recv(ctx)
	if err != nil {
		return err
	}
	resp, err := UnmarshalResponse(raw)
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return errors.New("ping answered " + resp.Status)
	}
	return nil
}

// waitFor polls cond until true or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// With one serving slot and a one-deep queue, the third session is shed
// with an explicit BUSY frame, and the queued session is served the
// moment the slot frees — bounded admission, visible rejection.
func TestAdmissionQueueAndShed(t *testing.T) {
	w := newTestWorld(t)
	srv := w.addNodeWith(t, "srv", geo.Pt(0, 0), ServerOptions{MaxSessions: 1, QueueDepth: 1})
	cli := w.addNode(t, "cli", geo.Pt(5, 0))
	ctx := testCtx(t)
	w.refreshAll(t, ctx)

	conn1, err := cli.lib.Connect(ctx, srv.dev, ServiceName)
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Abort()
	// The exchange proves conn1 owns the single serving slot.
	if err := pingConn(ctx, conn1, "one"); err != nil {
		t.Fatal(err)
	}

	conn2, err := cli.lib.Connect(ctx, srv.dev, ServiceName)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Abort()
	waitFor(t, 5*time.Second, func() bool { return srv.server.Stats().Queued == 1 },
		"second session never entered the admission queue")

	conn3, err := cli.lib.Connect(ctx, srv.dev, ServiceName)
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Abort()
	raw, err := conn3.Recv(ctx)
	if err != nil {
		t.Fatalf("shed session got no BUSY frame: %v", err)
	}
	resp, err := UnmarshalResponse(raw)
	if err != nil || resp.Status != StatusBusy {
		t.Fatalf("shed session answered %q/%v, want BUSY", resp.Status, err)
	}

	// Freeing the slot promotes the queued session.
	conn1.Abort()
	waitFor(t, 5*time.Second, func() bool { return pingConn(ctx, conn2, "two") == nil },
		"queued session was never served after the slot freed")

	st := srv.server.Stats()
	if st.Shed != 1 || st.QueueDepthMax != 1 || st.Admitted != 2 {
		t.Fatalf("stats = %+v, want 1 shed / depth 1 / 2 admitted", st)
	}
}

// The per-peer token bucket prices bulk transfers above small reads and
// control frames at zero: when the budget runs dry the peer still gets
// BUSY answers and pings, never silence.
func TestPerPeerRateLimitPrefersControlFrames(t *testing.T) {
	w := newTestWorld(t)
	// Refill is ~0.001 tokens per real second at this scale: effectively
	// only the burst exists for the duration of the test.
	srv := w.addNodeWith(t, "srv", geo.Pt(0, 0), ServerOptions{RatePerPeer: 1e-7, Burst: 5}, "chess")
	peer := ids.DeviceID("somepeer")

	if resp := srv.server.HandleFrom(peer, Request{Op: OpGetProfile, Args: []string{"srv", "x"}}); resp.Status == StatusBusy {
		t.Fatalf("first bulk read hit the limit: %v", resp.Status)
	}
	if resp := srv.server.HandleFrom(peer, Request{Op: OpGetInterestList}); resp.Status == StatusBusy {
		t.Fatal("small read within burst was refused")
	}
	if resp := srv.server.HandleFrom(peer, Request{Op: OpGetInterestList}); resp.Status != StatusBusy {
		t.Fatalf("read beyond the budget answered %q, want BUSY", resp.Status)
	}
	for i := 0; i < 5; i++ {
		if resp := srv.server.HandleFrom(peer, Request{Op: OpPing}); resp.Status != StatusOK {
			t.Fatalf("ping %d answered %q; control frames must never be rate-limited", i, resp.Status)
		}
	}
	// A different peer has its own untouched bucket.
	if resp := srv.server.HandleFrom("otherpeer", Request{Op: OpGetInterestList}); resp.Status == StatusBusy {
		t.Fatal("one peer's exhausted bucket throttled another peer")
	}
	st := srv.server.Stats()
	if st.RateLimited != 1 {
		t.Fatalf("RateLimited = %d, want 1", st.RateLimited)
	}
}

// Regression for the unbounded-write hazard: a peer that sends requests
// but never reads responses must cost the server one aborted session
// (SlowWriters), not a forever-wedged worker. With one serving slot the
// recovery is observable: a second session gets served afterwards.
func TestNeverReadingPeerFreesWorker(t *testing.T) {
	w := newTestWorld(t)
	srv := w.addNodeWith(t, "srv", geo.Pt(0, 0), ServerOptions{
		MaxSessions:  1,
		QueueDepth:   4,
		WriteTimeout: 2 * time.Minute, // modeled; ~12ms real at test scale
	})
	cli := w.addNode(t, "cli", geo.Pt(5, 0))
	ctx := testCtx(t)
	w.refreshAll(t, ctx)

	wedge, err := cli.lib.Connect(ctx, srv.dev, ServiceName)
	if err != nil {
		t.Fatal(err)
	}
	defer wedge.Abort()
	// Flood requests and read nothing. Responses fill the reverse
	// buffers; the server's write deadline must fire.
	req := MarshalRequest(Request{Op: OpPing})
	for i := 0; i < 5000 && srv.server.Stats().SlowWriters == 0; i++ {
		err := wedge.SendDeadline(req, time.Minute)
		if err != nil && !errors.Is(err, netsim.ErrSendTimeout) {
			break // server aborted the session — that's the mechanism working
		}
	}
	waitFor(t, 10*time.Second, func() bool { return srv.server.Stats().SlowWriters >= 1 },
		"write deadline never fired against a never-reading peer")

	// The worker is free again: a well-behaved session gets served.
	conn2, err := cli.lib.Connect(ctx, srv.dev, ServiceName)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Abort()
	waitFor(t, 5*time.Second, func() bool { return pingConn(ctx, conn2, "after") == nil },
		"worker still wedged after the slow-writer abort")
}

// A peer that keeps failing trips its circuit breaker: subsequent calls
// fail fast with ErrPeerCircuitOpen instead of burning the retry
// budget, and once the peer heals the half-open probe re-admits it.
func TestBreakerSkipsDeadPeerThenReadmits(t *testing.T) {
	w := newTestWorld(t)
	alice := w.addNode(t, "alice", geo.Pt(0, 0), "chess")
	bob := w.addNode(t, "bob", geo.Pt(5, 0), "chess")
	ctx := testCtx(t)
	w.refreshAll(t, ctx)
	alice.client.SetResilience(ResilienceOptions{FailureThreshold: 1, OpenFor: time.Second})

	if err := alice.client.Ping(ctx, bob.dev); err != nil {
		t.Fatal(err)
	}
	if err := w.env.SetPowered(bob.dev, false); err != nil {
		t.Fatal(err)
	}
	if err := alice.client.Ping(ctx, bob.dev); err == nil {
		t.Fatal("ping to a powered-off peer succeeded")
	}
	// The breaker is open now: the next call must fail locally.
	err := alice.client.Ping(ctx, bob.dev)
	if !errors.Is(err, ErrPeerCircuitOpen) {
		t.Fatalf("want ErrPeerCircuitOpen, got %v", err)
	}
	st := alice.client.Stats()
	if st.BreakerSkips == 0 || st.BreakerOpens == 0 {
		t.Fatalf("stats = %+v, want breaker skips and opens", st)
	}

	// Heal the peer; after the open window the half-open probe must
	// re-admit it.
	if err := w.env.SetPowered(bob.dev, true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return alice.client.Ping(ctx, bob.dev) == nil },
		"healed peer never re-admitted by the breaker probe")
	if st := alice.client.Stats(); st.BreakerReadmits == 0 {
		t.Fatalf("stats = %+v, want a breaker readmission", st)
	}
}

// BUSY answers are backpressure, not failure: they surface as
// ErrPeerBusy and never trip the breaker — shedding must not cause a
// self-inflicted partition.
func TestBusyIsBackpressureNotFailure(t *testing.T) {
	w := newTestWorld(t)
	srv := w.addNodeWith(t, "srv", geo.Pt(0, 0), ServerOptions{RatePerPeer: 1e-7, Burst: 1}, "chess")
	cli := w.addNode(t, "cli", geo.Pt(5, 0), "chess")
	ctx := testCtx(t)
	w.refreshAll(t, ctx)
	cli.client.SetResilience(ResilienceOptions{FailureThreshold: 1, OpenFor: time.Second})

	if _, err := cli.client.call(ctx, srv.dev, Request{Op: OpGetInterestList}); err != nil {
		t.Fatalf("call within burst: %v", err)
	}
	_, err := cli.client.call(ctx, srv.dev, Request{Op: OpGetInterestList})
	if !errors.Is(err, ErrPeerBusy) {
		t.Fatalf("want ErrPeerBusy beyond the budget, got %v", err)
	}
	// Pings are free, and the breaker must still be closed.
	if err := cli.client.Ping(ctx, srv.dev); err != nil {
		t.Fatalf("ping after BUSY: %v", err)
	}
	st := cli.client.Stats()
	if st.BusyRejected != 1 || st.BreakerOpens != 0 {
		t.Fatalf("stats = %+v, want 1 busy rejection and no breaker trips", st)
	}
}

// A hedged read escapes a stalled session: the primary's reply is
// withheld (gray failure), the p99-derived delay launches a spare
// session whose per-session stall draw came up healthy, and the spare's
// reply wins the race.
func TestHedgeRescuesStalledSession(t *testing.T) {
	w := newTestWorld(t)
	alice := w.addNode(t, "alice", geo.Pt(0, 0), "chess")
	bob := w.addNode(t, "bob", geo.Pt(5, 0), "chess")
	ctx := testCtx(t)
	w.refreshAll(t, ctx)
	alice.client.SetResilience(ResilienceOptions{
		FailureThreshold: 100, // keep the breaker out of this test
		Hedge:            true,
		HedgeMinSamples:  4,
	})

	// Prime the latency window on a healthy world.
	for i := 0; i < 8; i++ {
		if err := alice.client.Ping(ctx, bob.dev); err != nil {
			t.Fatal(err)
		}
	}
	// Drop the cached session so the next call dials a session with a
	// known sequence number: S+1 primary, S+2 spare.
	alice.client.dropConn(bob.dev)
	s := w.net.ConnSeq(alice.dev, bob.dev)

	// Pick a seed where the primary session stalls serving-side only and
	// the spare is clean in both directions.
	stalls := faults.EndpointProfile{StallRate: 0.5, StallFor: time.Hour}
	var plan *faults.Plan
	for seed := int64(1); seed <= 2000; seed++ {
		p := faults.New(seed).SetEndpoints(stalls)
		if p.SessionStalled(bob.dev, alice.dev, s+1, 0) &&
			!p.SessionStalled(alice.dev, bob.dev, s+1, 0) &&
			!p.SessionStalled(bob.dev, alice.dev, s+2, 0) &&
			!p.SessionStalled(alice.dev, bob.dev, s+2, 0) {
			plan = p
			break
		}
	}
	if plan == nil {
		t.Fatal("no seed with the wanted session fates in 2000 tries")
	}
	w.net.SetFaults(plan)

	if err := alice.client.Ping(ctx, bob.dev); err != nil {
		t.Fatalf("hedged ping against a stalled primary: %v", err)
	}
	st := alice.client.Stats()
	if st.HedgesLaunched == 0 || st.HedgeWins == 0 {
		t.Fatalf("stats = %+v, want a launched and won hedge", st)
	}
	// The adopted spare session keeps serving.
	if err := alice.client.Ping(ctx, bob.dev); err != nil {
		t.Fatalf("ping on the adopted session: %v", err)
	}
}
