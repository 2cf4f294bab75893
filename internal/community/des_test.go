package community

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/peerhood"
	"repro/internal/profile"
	"repro/internal/radio"
)

// newEngineWorld is newTestWorld on either engine. On the DES the
// scheduler's background runner is started only when discovery needs it
// (the daemon's RefreshNow still blocks on the clock); without it every
// client call is a cascade its caller awaits, and virtual time moves
// only with those.
func newEngineWorld(t *testing.T, useDES, runner bool) (*testWorld, *des.Scheduler) {
	t.Helper()
	if !useDES {
		return newTestWorld(t), nil
	}
	sched := des.NewScheduler(1, 2)
	if runner {
		sched.Start()
		t.Cleanup(sched.Stop)
	}
	env := radio.NewEnvironment(radio.WithScale(testScale), radio.WithClock(sched.Clock()))
	net := netsim.NewDES(env, 1, sched)
	t.Cleanup(net.Close)
	return &testWorld{env: env, net: net, nodes: make(map[ids.MemberID]*node)}, sched
}

// addPeer is addNodeWith on a Bluetooth-only device: a WLAN radio's
// passive probe listener learns neighbors on goroutine timing, which no
// engine comparison can pin.
func (w *testWorld) addPeer(t *testing.T, member ids.MemberID, at geo.Point, interests ...string) *node {
	t.Helper()
	dev := ids.DeviceID("dev-" + string(member))
	if err := w.env.Add(dev, mobility.Static{At: at}, radio.Bluetooth); err != nil {
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
	server, err := NewServer(lib, store)
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

// advance moves the DES's virtual time on by d.
func advance(t *testing.T, sched *des.Scheduler, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	sched.At(d, 0, func(*des.Ctx) { close(done) })
	if err := sched.Await(done); err != nil {
		t.Fatal(err)
	}
}

// TestDESHedgeRescuesStalledSession is TestHedgeRescuesStalledSession
// on the DES: the hedge timer is a child event of the call's, the
// spare's reply wins, and aborting the stalled primary's conn ends its
// parked receive.
func TestDESHedgeRescuesStalledSession(t *testing.T) {
	w, _ := newEngineWorld(t, true, false)
	alice := w.addPeer(t, "alice", geo.Pt(0, 0), "chess")
	bob := w.addPeer(t, "bob", geo.Pt(5, 0), "chess")
	ctx := testCtx(t)
	alice.client.SetResilience(ResilienceOptions{FailureThreshold: 100, Hedge: true, HedgeMinSamples: 4})
	for i := 0; i < 8; i++ {
		if err := alice.client.Ping(ctx, bob.dev); err != nil {
			t.Fatal(err)
		}
	}
	alice.client.dropConn(bob.dev)
	s := w.net.ConnSeq(alice.dev, bob.dev)
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
		t.Fatalf("hedged ping against a stalled primary: %v (stats %+v)", err, alice.client.Stats())
	}
	if st := alice.client.Stats(); st.HedgesLaunched != 1 || st.HedgeWins != 1 || st.CallsFailed != 0 {
		t.Fatalf("stats = %+v, want one launched and won hedge, no failed call", st)
	}
	if err := alice.client.Ping(ctx, bob.dev); err != nil {
		t.Fatalf("ping on the adopted session: %v", err)
	}
}

// TestDESBreakerSkipsDeadPeerThenReadmits is the breaker test on the
// DES, where the open window is the modeled one with no floor: the
// half-open probe is due once virtual time has moved past it.
func TestDESBreakerSkipsDeadPeerThenReadmits(t *testing.T) {
	w, sched := newEngineWorld(t, true, false)
	alice := w.addPeer(t, "alice", geo.Pt(0, 0), "chess")
	bob := w.addPeer(t, "bob", geo.Pt(5, 0), "chess")
	ctx := testCtx(t)
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
	if err := alice.client.Ping(ctx, bob.dev); !errors.Is(err, ErrPeerCircuitOpen) {
		t.Fatalf("want ErrPeerCircuitOpen, got %v", err)
	}
	if st := alice.client.Stats(); st.BreakerSkips != 1 || st.BreakerOpens != 1 {
		t.Fatalf("stats = %+v, want one breaker skip and one open", st)
	}
	if err := w.env.SetPowered(bob.dev, true); err != nil {
		t.Fatal(err)
	}
	advance(t, sched, testScale.ToReal(time.Second))
	if err := alice.client.Ping(ctx, bob.dev); err != nil {
		t.Fatalf("probe after the open window: %v", err)
	}
	if st := alice.client.Stats(); st.BreakerReadmits != 1 {
		t.Fatalf("stats = %+v, want a breaker readmission", st)
	}
}

// TestDESSingleflightCollapse: two identical reads started in one
// event share one exchange; the second joins the first's completion
// and gets its reply from the event that sets it.
func TestDESSingleflightCollapse(t *testing.T) {
	w, _ := newEngineWorld(t, true, false)
	alice := w.addPeer(t, "alice", geo.Pt(0, 0), "chess")
	bob := w.addPeer(t, "bob", geo.Pt(5, 0), "chess")
	ctx := testCtx(t)
	req := Request{Op: OpGetInterestList}
	resps, err := await(alice.client, ctx, func(f netsim.Flow, done func(netsim.Flow, []Response, error)) {
		var got []Response
		for i := 0; i < 2; i++ {
			alice.client.callShared(f, bob.dev, req, func(f netsim.Flow, resp Response, err error) {
				if err != nil {
					done(f, nil, err)
					return
				}
				if got = append(got, resp); len(got) == 2 {
					done(f, got, nil)
				}
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resps[0], resps[1]) || resps[0].Status != StatusOK {
		t.Fatalf("collapsed reads answered %+v and %+v, want one OK reply twice", resps[0], resps[1])
	}
	if st := alice.client.Stats(); st.CallsAttempted != 1 || st.SingleflightHits != 1 {
		t.Fatalf("stats = %+v, want one exchange and one singleflight hit", st)
	}
	if got := bob.server.Stats().Served; got != 1 {
		t.Fatalf("server answered %d requests, want 1", got)
	}
}

// engineRun is what one engine observed of the parity workload.
type engineRun struct {
	clients  map[ids.MemberID]ClientStats
	servers  map[ids.MemberID]ServerStats
	daemons  map[ids.MemberID]peerhood.Stats
	links    map[ids.MemberID]peerhood.LinkQuality
	groups   map[ids.MemberID][]core.Group
	counters netsim.Counters
}

// runParityWorkload drives one seeded, fault-free client workload from
// one goroutine on one engine.
func runParityWorkload(t *testing.T, useDES bool) engineRun {
	w, _ := newEngineWorld(t, useDES, true)
	members := []ids.MemberID{"alice", "bob", "carol", "dave"}
	interests := [][]string{{"football", "music"}, {"football", "movies"}, {"music"}, {"movies", "chess"}}
	for i, m := range members {
		w.addPeer(t, m, geo.Pt(float64(i)*2, 0), interests[i]...)
	}
	ctx := testCtx(t)
	for _, m := range members {
		if err := w.nodes[m].daemon.RefreshNow(ctx); err != nil {
			t.Fatal(err)
		}
	}
	refresh := func() {
		for _, m := range members {
			if _, err := w.nodes[m].client.RefreshGroups(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	refresh()
	refresh()
	if err := w.nodes["carol"].store.AddInterest("carol", "football"); err != nil {
		t.Fatal(err)
	}
	refresh()

	alice, bob := w.nodes["alice"], w.nodes["bob"]
	if online, err := alice.client.OnlineMembers(ctx); err != nil || len(online) != 3 {
		t.Fatalf("OnlineMembers = %v, %v", online, err)
	}
	if _, err := alice.client.ViewProfile(ctx, "bob"); err != nil {
		t.Fatal(err)
	}
	if err := alice.client.SendMessage(ctx, "bob", "hi", "kick-off at 8"); err != nil {
		t.Fatal(err)
	}
	if err := bob.server.ShareContent("bob", "match.mp4", []byte("video-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := bob.store.AddTrusted("bob", "alice"); err != nil {
		t.Fatal(err)
	}
	if items, err := alice.client.SharedContentOf(ctx, "bob"); err != nil || len(items) != 1 {
		t.Fatalf("SharedContentOf = %v, %v", items, err)
	}
	if data, err := alice.client.FetchShared(ctx, "bob", "match.mp4"); err != nil || string(data) != "video-bytes" {
		t.Fatalf("FetchShared = %q, %v", data, err)
	}

	run := engineRun{
		clients: map[ids.MemberID]ClientStats{}, servers: map[ids.MemberID]ServerStats{},
		daemons: map[ids.MemberID]peerhood.Stats{}, links: map[ids.MemberID]peerhood.LinkQuality{},
		groups: map[ids.MemberID][]core.Group{},
	}
	for _, m := range members {
		n := w.nodes[m]
		run.clients[m] = n.client.Stats()
		run.servers[m] = n.server.Stats()
		run.daemons[m] = n.daemon.Stats()
		run.links[m] = n.daemon.LinkQuality()
		run.groups[m] = n.client.Groups()
	}
	run.counters = w.net.Counters()
	return run
}

// TestClientEngineParity holds the client to the goroutine engine as
// its oracle: one seeded, fault-free workload — group rounds, the
// NOT_MODIFIED path after an interest edit, member list, profile view,
// message, shared content with trust — leaves the same client, server,
// daemon and link counters, transport counters and group views on both
// engines.
func TestClientEngineParity(t *testing.T) {
	oracle := runParityWorkload(t, false)
	got := runParityWorkload(t, true)
	for _, c := range []struct {
		name       string
		want, have any
	}{
		{"ClientStats", oracle.clients, got.clients},
		{"ServerStats", oracle.servers, got.servers},
		{"peerhood.Stats", oracle.daemons, got.daemons},
		{"LinkQuality", oracle.links, got.links},
		{"group views", oracle.groups, got.groups},
		{"netsim.Counters", oracle.counters, got.counters},
	} {
		if !reflect.DeepEqual(c.want, c.have) {
			t.Errorf("%s differ:\n goroutine engine %s\n DES              %s", c.name, fmt.Sprintf("%+v", c.want), fmt.Sprintf("%+v", c.have))
		}
	}
	if got.clients["alice"].NotModified == 0 {
		t.Errorf("the workload never took the NOT_MODIFIED path: %+v", got.clients["alice"])
	}
}
