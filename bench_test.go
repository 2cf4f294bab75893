package repro

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/harness"
	"repro/internal/ids"
	"repro/internal/interest"
	"repro/internal/mobility"
	"repro/internal/msc"
	"repro/internal/netsim"
	"repro/internal/peerhood"
	"repro/internal/profile"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/snsbase"
	"repro/internal/vtime"
)

// reportModeled attaches the modeled duration (the paper's scale) to a
// benchmark result.
func reportModeled(b *testing.B, total time.Duration, n int) {
	b.Helper()
	b.ReportMetric(total.Seconds()/float64(n), "modeled-s/op")
}

// --- Table 8: the headline experiment -------------------------------

func benchSNSColumn(b *testing.B, site snsbase.SiteProfile, handset snsbase.HandsetProfile) {
	b.Helper()
	var modeled time.Duration
	for i := 0; i < b.N; i++ {
		row, err := harness.RunSNSColumn(harness.Table8Options{}, site, handset)
		if err != nil {
			b.Fatal(err)
		}
		modeled += row.Total()
	}
	reportModeled(b, modeled, b.N)
}

// BenchmarkTable8_FacebookN810 reruns the Facebook-on-N810 column
// (paper: 94 s total).
func BenchmarkTable8_FacebookN810(b *testing.B) {
	benchSNSColumn(b, snsbase.Facebook(), snsbase.NokiaN810())
}

// BenchmarkTable8_FacebookN95 reruns the Facebook-on-N95 column
// (paper: 157 s total).
func BenchmarkTable8_FacebookN95(b *testing.B) {
	benchSNSColumn(b, snsbase.Facebook(), snsbase.NokiaN95())
}

// BenchmarkTable8_Hi5N810 reruns the Hi5-on-N810 column (paper: 120 s
// total).
func BenchmarkTable8_Hi5N810(b *testing.B) {
	benchSNSColumn(b, snsbase.Hi5(), snsbase.NokiaN810())
}

// BenchmarkTable8_Hi5N95 reruns the Hi5-on-N95 column (paper: 181 s
// total).
func BenchmarkTable8_Hi5N95(b *testing.B) {
	benchSNSColumn(b, snsbase.Hi5(), snsbase.NokiaN95())
}

// BenchmarkTable8_PeerHoodCommunity reruns the PeerHood Community
// column (paper: 45 s total, join 0 s).
func BenchmarkTable8_PeerHoodCommunity(b *testing.B) {
	var modeled time.Duration
	for i := 0; i < b.N; i++ {
		row, err := harness.RunPHCColumn(harness.Table8Options{})
		if err != nil {
			b.Fatal(err)
		}
		if row.Join != 0 && row.Join > time.Second {
			b.Fatalf("join = %v, expected ~0", row.Join)
		}
		modeled += row.Total()
	}
	reportModeled(b, modeled, b.N)
}

// --- Ablations -------------------------------------------------------

// BenchmarkAblationWarmCache compares the PeerHood search cost cold
// (discovery runs while the user waits — the paper's 11 s) vs warm
// (the daemon's background rounds already populated the cache).
func BenchmarkAblationWarmCache(b *testing.B) {
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			var modeled time.Duration
			for i := 0; i < b.N; i++ {
				row, err := harness.RunPHCColumn(harness.Table8Options{WarmCache: warm})
				if err != nil {
					b.Fatal(err)
				}
				modeled += row.Search
			}
			reportModeled(b, modeled, b.N)
		})
	}
}

// BenchmarkAblationLatencyScale shows the modeled Table 8 result is
// (approximately) invariant under the latency scale — the measurement
// methodology, not the scale, produces the numbers.
func BenchmarkAblationLatencyScale(b *testing.B) {
	for _, factor := range []float64{1e-2, 2e-2} {
		b.Run(fmt.Sprintf("scale-%g", factor), func(b *testing.B) {
			var modeled time.Duration
			for i := 0; i < b.N; i++ {
				row, err := harness.RunPHCColumn(harness.Table8Options{Scale: vtime.NewScale(factor)})
				if err != nil {
					b.Fatal(err)
				}
				modeled += row.Total()
			}
			reportModeled(b, modeled, b.N)
		})
	}
}

// BenchmarkAblationSemantics measures dynamic group discovery over a
// synonym-rich population with and without the taught-semantics layer
// (the thesis's future work): the semantics layer pays a lookup cost
// but collapses fragmented groups.
func BenchmarkAblationSemantics(b *testing.B) {
	synonyms := [][2]string{
		{"biking", "cycling"}, {"football", "soccer"}, {"movies", "cinema"},
	}
	nearby := make([]core.Member, 0, 60)
	for i := 0; i < 60; i++ {
		pair := synonyms[i%len(synonyms)]
		term := pair[i/len(synonyms)%2]
		nearby = append(nearby, core.Member{
			Device:    ids.DeviceIDf("d%02d", i),
			ID:        ids.MemberID(fmt.Sprintf("m%02d", i)),
			Interests: []string{term},
		})
	}
	active := core.Member{Device: "self", ID: "self", Interests: []string{"biking", "football", "movies"}}

	b.Run("baseline", func(b *testing.B) {
		var groups, members int
		for i := 0; i < b.N; i++ {
			gs := core.DiscoverGroups(active, nearby, nil)
			groups = len(gs)
			members = 0
			for _, g := range gs {
				members += len(g.Members)
			}
		}
		b.ReportMetric(float64(groups), "groups")
		b.ReportMetric(float64(members), "members")
	})
	b.Run("semantics", func(b *testing.B) {
		sem := interest.NewSemantics()
		for _, pair := range synonyms {
			sem.Teach(pair[0], pair[1])
		}
		var groups, members int
		for i := 0; i < b.N; i++ {
			gs := core.DiscoverGroups(active, nearby, sem)
			groups = len(gs)
			members = 0
			for _, g := range gs {
				members += len(g.Members)
			}
		}
		b.ReportMetric(float64(groups), "groups")
		b.ReportMetric(float64(members), "members")
	})
}

// --- Figure 6: the dynamic group discovery algorithm -----------------

// BenchmarkFigure6Discovery measures the pure algorithm's cost as the
// neighborhood grows (the "performance testing during the dynamic
// group discovery" the conclusion names as future work).
func BenchmarkFigure6Discovery(b *testing.B) {
	pool := []string{"football", "music", "movies", "chess", "cooking", "photography", "hiking", "poker"}
	for _, n := range []int{5, 50, 500} {
		b.Run(fmt.Sprintf("neighbors-%d", n), func(b *testing.B) {
			nearby := make([]core.Member, n)
			for i := range nearby {
				nearby[i] = core.Member{
					Device:    ids.DeviceIDf("d%04d", i),
					ID:        ids.MemberID(fmt.Sprintf("m%04d", i)),
					Interests: []string{pool[i%len(pool)], pool[(i+3)%len(pool)]},
				}
			}
			active := core.Member{Device: "self", ID: "self", Interests: pool[:4]}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if gs := core.DiscoverGroups(active, nearby, nil); len(gs) == 0 {
					b.Fatal("no groups formed")
				}
			}
		})
	}
}

// --- Table 3: PeerHood functionality ---------------------------------

// benchWorld builds a small Bluetooth neighborhood for protocol
// benchmarks.
type benchWorld struct {
	env    *radio.Environment
	net    *netsim.Network
	peers  []*benchPeer
	active *benchPeer
	client *community.Client
	ctx    context.Context
}

type benchPeer struct {
	daemon *peerhood.Daemon
	server *community.Server
	store  *profile.Store
}

func newBenchWorld(b *testing.B, peerCount int) *benchWorld {
	b.Helper()
	env := radio.NewEnvironment(radio.WithScale(vtime.NewScale(1e-4)))
	net := netsim.New(env, 1)
	b.Cleanup(net.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	b.Cleanup(cancel)
	w := &benchWorld{env: env, net: net, ctx: ctx}

	mk := func(dev ids.DeviceID, member ids.MemberID, at geo.Point) *benchPeer {
		if err := env.Add(dev, mobility.Static{At: at}, radio.Bluetooth); err != nil {
			b.Fatal(err)
		}
		daemon, err := peerhood.NewDaemon(peerhood.Config{Device: dev, Network: net})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(daemon.Stop)
		store := profile.NewStore(nil)
		if err := store.CreateAccount(member, "pw"); err != nil {
			b.Fatal(err)
		}
		if err := store.Login(member, "pw"); err != nil {
			b.Fatal(err)
		}
		if err := store.AddInterest(member, "football"); err != nil {
			b.Fatal(err)
		}
		server, err := community.NewServer(peerhood.NewLibrary(daemon), store)
		if err != nil {
			b.Fatal(err)
		}
		if err := server.Start(); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(server.Stop)
		return &benchPeer{daemon: daemon, server: server, store: store}
	}
	for i := 0; i < peerCount; i++ {
		w.peers = append(w.peers, mk(
			ids.DeviceIDf("peer-%02d", i),
			ids.MemberID(fmt.Sprintf("member-%02d", i)),
			geo.Pt(float64(i%3+1), float64(i/3)),
		))
	}
	w.active = mk("active", "active", geo.Pt(0, 0))
	if err := w.active.daemon.RefreshNow(ctx); err != nil {
		b.Fatal(err)
	}
	client, err := community.NewClient(peerhood.NewLibrary(w.active.daemon), w.active.store, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(client.Close)
	w.client = client
	return w
}

// BenchmarkTable3DiscoveryRound measures one full PeerHood discovery
// round (inquiry + SDP for every neighbor) — rows 1 and 2 of Table 3.
func BenchmarkTable3DiscoveryRound(b *testing.B) {
	w := newBenchWorld(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.active.daemon.RefreshNow(w.ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Connect measures connection establishment to a
// registered service — rows 3 and 4 of Table 3.
func BenchmarkTable3Connect(b *testing.B) {
	w := newBenchWorld(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := w.active.daemon.Connect(w.ctx, "peer-00", community.ServiceName)
		if err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

// --- Table 6: per-operation costs ------------------------------------

// BenchmarkTable6Dispatch measures the server's request dispatch for
// every Table 6 operation, without the network.
func BenchmarkTable6Dispatch(b *testing.B) {
	w := newBenchWorld(b, 1)
	server := w.peers[0].server
	member := string(ids.MemberID("member-00"))
	reqs := []community.Request{
		{Op: community.OpGetOnlineMemberList},
		{Op: community.OpGetInterestList},
		{Op: community.OpGetInterestedMemberList, Args: []string{"football"}},
		{Op: community.OpGetProfile, Args: []string{member, "active"}},
		{Op: community.OpCheckMemberID, Args: []string{member}},
		{Op: community.OpGetTrustedFriend, Args: []string{member}},
		{Op: community.OpCheckTrusted, Args: []string{member, "active"}},
	}
	for _, req := range reqs {
		b.Run(req.Op, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if resp := server.Handle(req); resp.Status == community.StatusBadRequest {
					b.Fatalf("bad request: %+v", resp)
				}
			}
		})
	}
}

// BenchmarkTable6RoundTrip measures a full request/response over the
// simulated Bluetooth link (PS_GETONLINEMEMBERLIST end to end).
func BenchmarkTable6RoundTrip(b *testing.B) {
	w := newBenchWorld(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		members, err := w.client.OnlineMembers(w.ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(members) == 0 {
			b.Fatal("no members")
		}
	}
}

// --- Figures 11–17: the MSC operations -------------------------------

// BenchmarkMSCOperations measures each client operation the figures
// document, end to end over the simulated network.
func BenchmarkMSCOperations(b *testing.B) {
	ops := []struct {
		name string
		run  func(w *benchWorld) error
	}{
		{"Figure11_GetMemberList", func(w *benchWorld) error {
			_, err := w.client.OnlineMembers(w.ctx)
			return err
		}},
		{"Figure12_GetInterestsList", func(w *benchWorld) error {
			_, err := w.client.InterestsList(w.ctx)
			return err
		}},
		{"Figure13_ViewMemberProfile", func(w *benchWorld) error {
			_, err := w.client.ViewProfile(w.ctx, "member-00")
			return err
		}},
		{"Figure14_PutProfileComment", func(w *benchWorld) error {
			return w.client.CommentProfile(w.ctx, "member-00", "bench comment")
		}},
		{"Figure15_ViewTrustedFriends", func(w *benchWorld) error {
			_, err := w.client.TrustedFriendsOf(w.ctx, "member-00")
			return err
		}},
		{"Figure17_SendMessage", func(w *benchWorld) error {
			return w.client.SendMessage(w.ctx, "member-00", "bench", "body")
		}},
	}
	for _, op := range ops {
		b.Run(op.name, func(b *testing.B) {
			w := newBenchWorld(b, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op.run(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("Figure16_ViewSharedContent", func(b *testing.B) {
		w := newBenchWorld(b, 3)
		if err := w.peers[0].store.AddTrusted("member-00", "active"); err != nil {
			b.Fatal(err)
		}
		if err := w.peers[0].server.ShareContent("member-00", "file.bin", []byte("data")); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.client.SharedContentOf(w.ctx, "member-00"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Micro-benchmarks on the substrate -------------------------------

// BenchmarkWireCodec measures the community frame codec.
func BenchmarkWireCodec(b *testing.B) {
	req := community.Request{
		Op:   community.OpMsg,
		Args: []string{"receiver", "sender", "subject line", "a message body with some length to it"},
	}
	b.Run("marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if out := community.MarshalRequest(req); len(out) == 0 {
				b.Fatal("empty frame")
			}
		}
	})
	frame := community.MarshalRequest(req)
	b.Run("unmarshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := community.UnmarshalRequest(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireCodecSized measures the codec across response sizes —
// the shapes a group round actually moves: a 10-field reply is one
// member summary, 100–500 fields are interest-list fan-in aggregates.
// The append variants reuse one buffer, the pooled hot path the client
// and server run on.
func BenchmarkWireCodecSized(b *testing.B) {
	for _, n := range []int{10, 100, 500} {
		fields := make([]string, n)
		for i := range fields {
			fields[i] = benchDeltaVocab[i%len(benchDeltaVocab)]
		}
		resp := community.Response{Status: community.StatusOK, Fields: fields}
		b.Run(fmt.Sprintf("marshal/fields=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out := community.MarshalResponse(resp); len(out) == 0 {
					b.Fatal("empty frame")
				}
			}
		})
		b.Run(fmt.Sprintf("append/fields=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 1<<14)
			for i := 0; i < b.N; i++ {
				buf = community.AppendResponse(buf[:0], resp)
				if len(buf) == 0 {
					b.Fatal("empty frame")
				}
			}
		})
		frame := community.MarshalResponse(resp)
		b.Run(fmt.Sprintf("unmarshal/fields=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := community.UnmarshalResponse(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMSCRender measures chart rendering (Figures 11–17 output).
func BenchmarkMSCRender(b *testing.B) {
	rec := msc.NewRecorder("bench")
	for i := 0; i < 20; i++ {
		rec.Record("client", fmt.Sprintf("server%d", i%3), "PS_GETPROFILE")
		rec.Record(fmt.Sprintf("server%d", i%3), "client", "OK")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := rec.String(); len(out) == 0 {
			b.Fatal("empty chart")
		}
	}
}

// BenchmarkSemanticsCanon measures the union-find lookup under a large
// taught vocabulary.
func BenchmarkSemanticsCanon(b *testing.B) {
	sem := interest.NewSemantics()
	for i := 0; i < 1000; i++ {
		sem.Teach(fmt.Sprintf("term-%d", i), fmt.Sprintf("term-%d", (i+1)%1000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sem.Canon(fmt.Sprintf("term-%d", i%1000)) == "" {
			b.Fatal("empty canon")
		}
	}
}

// BenchmarkAblationTechnology runs the PeerHood Community column over
// each access technology: Bluetooth (the thesis's configuration), WLAN
// (faster scan, longer range) and GPRS bridged through the operator
// proxy (unlimited range, highest latency).
func BenchmarkAblationTechnology(b *testing.B) {
	for _, tech := range radio.AllTechnologies() {
		b.Run(tech.String(), func(b *testing.B) {
			var modeled time.Duration
			for i := 0; i < b.N; i++ {
				row, err := harness.RunPHCColumn(harness.Table8Options{Technology: tech})
				if err != nil {
					b.Fatal(err)
				}
				modeled += row.Total()
			}
			reportModeled(b, modeled, b.N)
		})
	}
}

// BenchmarkFutureWorkDiscoveryScale measures the full-stack dynamic
// group discovery cycle as the neighborhood grows — the experiment the
// thesis's conclusion proposes as future work.
func BenchmarkFutureWorkDiscoveryScale(b *testing.B) {
	for _, peers := range []int{2, 8} {
		b.Run(fmt.Sprintf("peers-%d", peers), func(b *testing.B) {
			var modeled time.Duration
			for i := 0; i < b.N; i++ {
				points, err := harness.RunDiscoveryScale(vtime.Scale{}, []int{peers})
				if err != nil {
					b.Fatal(err)
				}
				modeled += points[0].Search
			}
			reportModeled(b, modeled, b.N)
		})
	}
}

// --- Substrate scaling: thousands of devices -------------------------

// placeBenchDevices fills the environment with n seeded static devices
// at constant density (~50 m² per device), the regime where neighbor
// queries decide whether discovery scales.
func placeBenchDevices(b *testing.B, env *radio.Environment, n int, tech radio.Technology) []ids.DeviceID {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	side := math.Sqrt(float64(n) * 50)
	devs := make([]ids.DeviceID, n)
	for i := range devs {
		devs[i] = ids.DeviceIDf("bench-%04d", i)
		at := geo.Pt(rng.Float64()*side, rng.Float64()*side)
		if err := env.Add(devs[i], mobility.Static{At: at}, tech); err != nil {
			b.Fatal(err)
		}
	}
	return devs
}

// BenchmarkNeighbors compares one neighborhood query on the spatial
// grid index against the brute-force per-pair oracle across world
// sizes. The clock is frozen, so the grid path amortizes one world
// snapshot across all iterations — the discovery-round access pattern.
// BENCH_netsim.json pins grid ≥ 5x brute at 1000 devices, and the
// zerofault mode (grid path with a zero-rate fault plan installed) pins
// the fault hooks' overhead on the fault-free fast path.
func BenchmarkNeighbors(b *testing.B) {
	for _, mode := range []string{"grid", "brute", "zerofault"} {
		for _, n := range []int{100, 500, 1000, 2000} {
			b.Run(fmt.Sprintf("%s/devices=%d", mode, n), func(b *testing.B) {
				clk := vtime.NewManual(time.Unix(0, 0))
				env := radio.NewEnvironment(radio.WithClock(clk))
				devs := placeBenchDevices(b, env, n, radio.Bluetooth)
				if mode == "zerofault" {
					env.SetInquiryFaults(faults.New(int64(n)))
				}
				env.Neighbors(devs[0], radio.Bluetooth) // build the epoch snapshot
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "brute" {
						env.NeighborsBrute(devs[i%n], radio.Bluetooth)
					} else {
						env.Neighbors(devs[i%n], radio.Bluetooth)
					}
				}
			})
		}
	}
}

// BenchmarkBroadcastFanout measures a discovery probe into a fully
// subscribed world: one SendBroadcast resolving its whole target set
// with a single grid query. The zerofault mode installs a zero-rate
// fault plan so BENCH_netsim.json can pin the per-target fault check's
// overhead on the fault-free path.
func BenchmarkBroadcastFanout(b *testing.B) {
	run := func(b *testing.B, n int, plan *faults.Plan) {
		env := radio.NewEnvironment(radio.WithScale(vtime.NewScale(1e-6)))
		net := netsim.New(env, int64(n))
		b.Cleanup(net.Close)
		net.SetFaults(plan)
		devs := placeBenchDevices(b, env, n, radio.WLAN)
		for _, id := range devs {
			sub, err := net.SubscribeBroadcast(id, "disc")
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(sub.Close)
		}
		payload := []byte("probe")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := net.SendBroadcast(devs[i%n], radio.WLAN, "disc", payload); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, n := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("devices=%d", n), func(b *testing.B) {
			run(b, n, nil)
		})
		b.Run(fmt.Sprintf("zerofault/devices=%d", n), func(b *testing.B) {
			run(b, n, faults.New(int64(n)))
		})
	}
}

// BenchmarkScaleDiscovery runs one full discovery round at thousand-
// peer scale: every device refreshes its neighborhood at a fresh query
// epoch (so each iteration pays one snapshot build) and the active peer
// forms groups from its own neighbors.
func BenchmarkScaleDiscovery(b *testing.B) {
	pool := []string{"football", "music", "movies", "chess", "cooking", "photography", "hiking", "poker"}
	for _, n := range []int{100, 500, 1000, 2000} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			clk := vtime.NewManual(time.Unix(0, 0))
			env := radio.NewEnvironment(radio.WithClock(clk))
			devs := placeBenchDevices(b, env, n, radio.Bluetooth)
			members := make(map[ids.DeviceID]core.Member, n)
			for i, id := range devs {
				members[id] = core.Member{
					Device:    id,
					ID:        ids.MemberID(fmt.Sprintf("m%04d", i)),
					Interests: []string{pool[i%len(pool)], pool[(i+3)%len(pool)]},
				}
			}
			active := core.Member{Device: devs[0], ID: "active", Interests: pool[:4]}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clk.Advance(time.Second) // new epoch: the round rebuilds the snapshot
				for _, id := range devs {
					env.Neighbors(id, radio.Bluetooth)
				}
				nearby := make([]core.Member, 0, 16)
				for _, nb := range env.Neighbors(devs[0], radio.Bluetooth) {
					nearby = append(nearby, members[nb])
				}
				core.DiscoverGroups(active, nearby, nil)
			}
		})
	}
}

// BenchmarkDESScaleDiscovery runs the engine-scaling discovery sweep
// (internal/harness/enginescale.go): every device runs an inquiry
// window, queries its neighborhood and exchanges interest
// advertisements with a capped fan-out, on the goroutine transport
// engine and on the discrete-event engine — where the drivers are
// event cascades, so one sweep is one synchronous Run over the worker
// pool. One iteration is one whole sweep (two rounds per device), so
// run it with -benchtime 1x. ns/op includes world construction; the
// reported ns/dev-round metric is the sweep-only cost per
// device-round, and its flatness across 1k → 10k → 50k → 100k devices
// is the event engine's scaling claim (the goroutine engine's
// reference row grows with device count — BENCH_des.json pins both
// floors). The workers=1 and workers=max legs at 50k isolate the
// multi-core speedup of parallel shard-batch execution; on multi-core
// hardware the Makefile enforces their ns/dev-round ratio. Sweeps of
// 50k+ are half-minute-plus experiments and skip under -short so
// bench-smoke stays fast.
func BenchmarkDESScaleDiscovery(b *testing.B) {
	run := func(b *testing.B, n int, cfg harness.EngineScaleConfig) {
		var last harness.EngineScalePoint
		for i := 0; i < b.N; i++ {
			ps, err := harness.RunEngineScale(cfg, []int{n})
			if err != nil {
				b.Fatal(err)
			}
			last = ps[0]
		}
		b.ReportMetric(last.NsPerDeviceRound, "ns/dev-round")
		if cfg.DES {
			b.ReportMetric(last.EventsPerSec, "events/sec")
		}
		if last.Groups == 0 || last.Delivered == 0 {
			b.Fatalf("sweep exchanged nothing: %+v", last)
		}
	}
	b.Run("engine=goroutine/devices=1000", func(b *testing.B) {
		run(b, 1000, harness.EngineScaleConfig{Seed: 7})
	})
	for _, n := range []int{1000, 10000, 50000, 100000} {
		b.Run(fmt.Sprintf("engine=des/devices=%d", n), func(b *testing.B) {
			if n >= 50000 && testing.Short() {
				b.Skip("50k+ sweep skipped under -short")
			}
			run(b, n, harness.EngineScaleConfig{Seed: 7, Engine: harness.Engine{DES: true}})
		})
	}
	// Worker-count legs: same 50k sweep pinned to one executor vs the
	// GOMAXPROCS default. Stable names (workers=max, not the number) so
	// the committed baseline compares across machines.
	for _, leg := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", 0}} {
		b.Run("engine=des/devices=50000/"+leg.name, func(b *testing.B) {
			if testing.Short() {
				b.Skip("50k+ sweep skipped under -short")
			}
			run(b, 50000, harness.EngineScaleConfig{Seed: 7, Engine: harness.Engine{DES: true, Workers: leg.workers}})
		})
	}
}

// --- Delta synchronization: cold vs steady group rounds --------------

// benchDeltaVocab models realistic member profiles; every peer carries
// 20 distinct terms from it (stride 5 is coprime with 24), so a cold
// round ships a full interest list per neighbor while a steady round
// ships only the fixed-size NOT_MODIFIED frame.
var benchDeltaVocab = []string{
	"football", "ice-hockey", "progressive-rock", "classical-music",
	"mobile-photography", "trail-running", "board-games", "astronomy",
	"street-food", "travel-stories", "retro-computing", "gardening",
	"language-exchange", "film-festivals", "chess", "orienteering",
	"vintage-cameras", "stand-up-comedy", "urban-sketching", "sailing",
	"science-fiction", "craft-coffee", "karaoke-nights", "birdwatching",
}

func benchDeltaInterests(i int) []string {
	seen := make(map[string]bool, 20)
	out := make([]string, 0, 20)
	for k := 0; k < 20; k++ {
		t := benchDeltaVocab[(i+k*5)%len(benchDeltaVocab)]
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// newGroupRoundWorld builds one active peer plus n neighbors on a tight
// Bluetooth grid with rich overlapping profiles, neighborhood already
// discovered, latency scaled to noise so the benchmark measures
// protocol and rebuild cost.
func newGroupRoundWorld(b *testing.B, peers int) (*scenario.Deployment, *scenario.Peer, context.Context) {
	b.Helper()
	builder := scenario.NewBuilder().WithScale(vtime.NewScale(1e-6)).WithSeed(int64(peers))
	side := 1 + peers/4
	for i := 0; i < peers; i++ {
		builder.AddPeer(scenario.PeerSpec{
			Member:    ids.MemberID(fmt.Sprintf("peer-%04d", i)),
			Position:  geo.Pt(float64(i%side)*0.01, float64(i/side)*0.01),
			Interests: benchDeltaInterests(i),
		})
	}
	builder.AddPeer(scenario.PeerSpec{
		Member:    "active",
		Device:    "active-dev",
		Position:  geo.Pt(0.005, 0.005),
		Interests: benchDeltaInterests(0),
	})
	d, err := builder.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	b.Cleanup(cancel)
	active := d.MustPeer("active")
	if err := active.Daemon.RefreshNow(ctx); err != nil {
		b.Fatal(err)
	}
	return d, active, ctx
}

// BenchmarkGroupRound is the delta-synchronization headline: one full
// group-discovery round against n peers. The cold mode pays the whole
// classic cost every iteration — a fresh client (no cache, no
// connections), full interest lists on the wire, a full group rebuild.
// The steady mode reuses one primed client: per-peer conditional reads
// answered NOT_MODIFIED and a fingerprint-skipped rebuild. Each mode
// reports wire-bytes/op from the transport's byte counters;
// BENCH_community.json pins cold/steady floors at 500 peers.
func BenchmarkGroupRound(b *testing.B) {
	for _, n := range []int{10, 100, 500} {
		b.Run(fmt.Sprintf("cold/peers=%d", n), func(b *testing.B) {
			d, active, ctx := newGroupRoundWorld(b, n)
			before := d.Net.Counters().BytesDelivered
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				client, err := community.NewClient(peerhood.NewLibrary(active.Daemon), active.Store, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := client.RefreshGroups(ctx); err != nil {
					b.Fatal(err)
				}
				if len(client.Groups()) == 0 {
					b.Fatal("cold round formed no groups")
				}
				client.Close()
			}
			b.StopTimer()
			moved := d.Net.Counters().BytesDelivered - before
			b.ReportMetric(float64(moved)/float64(b.N), "wire-bytes/op")
		})
		b.Run(fmt.Sprintf("steady/peers=%d", n), func(b *testing.B) {
			d, active, ctx := newGroupRoundWorld(b, n)
			// Prime: the first round fills the per-peer cache and the
			// group manager's snapshot fingerprint.
			if _, err := active.Client.RefreshGroups(ctx); err != nil {
				b.Fatal(err)
			}
			if len(active.Client.Groups()) == 0 {
				b.Fatal("priming round formed no groups")
			}
			before := d.Net.Counters().BytesDelivered
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := active.Client.RefreshGroups(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			moved := d.Net.Counters().BytesDelivered - before
			b.ReportMetric(float64(moved)/float64(b.N), "wire-bytes/op")
			st := active.Client.Stats()
			if st.NotModified == 0 || st.CacheHits == 0 {
				b.Fatalf("steady rounds never hit the cache: %+v", st)
			}
		})
	}
}

// BenchmarkChurn measures group-membership churn per modeled minute at
// pedestrian speed — the "instantaneous social network" property.
func BenchmarkChurn(b *testing.B) {
	for _, speed := range []float64{0.5, 1.5} {
		b.Run(fmt.Sprintf("speed-%.1fmps", speed), func(b *testing.B) {
			var perMin float64
			for i := 0; i < b.N; i++ {
				points, err := harness.RunChurn(harness.ChurnConfig{Window: time.Minute}, []float64{speed})
				if err != nil {
					b.Fatal(err)
				}
				perMin += points[0].EventsPerMinute
			}
			b.ReportMetric(perMin/float64(b.N), "events/modeled-min")
		})
	}
}

// BenchmarkServerAdmission prices the two HandleFrom fast paths the
// overload machinery depends on: serve (rate limiter disabled, the
// request reaches its Table 6 handler) vs shed (per-peer budget
// exhausted, BUSY returned before any handler work). The committed
// BENCH_community.json pins serve >= 5x the cost of shed — the
// property that makes admission control a defense under overload
// rather than a second source of load.
func BenchmarkServerAdmission(b *testing.B) {
	w := newBenchWorld(b, 1)
	peer := w.peers[0]
	// GetProfile is the weight-4 bulk transfer the rate limiter exists
	// to shed: trust gate, profile read, field marshalling. Give the
	// profile the paper's kind of lived-in state (interests, comments,
	// visits) so the serve path prices a realistic transfer; the shed
	// path answers BUSY in constant time no matter how expensive the
	// request would have been.
	if err := peer.store.SetInfo("member-00", "Member Zero", "Lappeenranta", "benchmark profile"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if err := peer.store.AddInterest("member-00", fmt.Sprintf("interest-%02d", i)); err != nil {
			b.Fatal(err)
		}
		if err := peer.store.AddComment("member-00", "member-00", fmt.Sprintf("comment %d from the neighborhood", i)); err != nil {
			b.Fatal(err)
		}
	}
	req := community.Request{Op: community.OpGetProfile, Args: []string{"member-00", "member-00"}}
	from := ids.DeviceID("load-gen")

	b.Run("serve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if resp := peer.server.HandleFrom(from, req); resp.Status != community.StatusOK {
				b.Fatalf("serve path answered %+v", resp)
			}
		}
	})
	b.Run("shed", func(b *testing.B) {
		shedding, err := community.NewServerWith(peerhood.NewLibrary(peer.daemon), peer.store,
			community.ServerOptions{RatePerPeer: 1e-9, Burst: 1})
		if err != nil {
			b.Fatal(err)
		}
		// Burst 1 is below the request's weight of 4, so every call
		// takes the shed path; at 1e-9 tokens per modeled second the
		// bucket cannot refill to weight 4 within any benchmark run.
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := shedding.HandleFrom(from, req); resp.Status != community.StatusBusy {
				b.Fatalf("shed path answered %+v", resp)
			}
		}
	})
}

// --- Epidemic dissemination: gossip vs fan-out wire cost -------------

// BenchmarkGossipConvergence is the epidemic-dissemination headline:
// a field of Bluetooth-scale proximity clusters where every device
// must come to hold each radio neighbor's current interest record.
// The fanout mode re-pulls every neighbor's full record each round;
// the gossip mode runs internal/gossip (greedy rumors with death by
// redundancy feedback, bloom have-digests, periodic anti-entropy).
// Each case reports rounds-to-converge and the steady wire bytes per
// round once converged; BENCH_gossip.json pins the 1000-device
// fanout:gossip steady-byte ratio as a floor — the epidemic must stay
// an order cheaper per round, or the claim regressed. The 10k and 50k
// cases run the epidemic on the discrete-event engine, where the
// steady per-device cost must stay flat (the 50k case is skipped
// under -short).
func BenchmarkGossipConvergence(b *testing.B) {
	run := func(b *testing.B, n int, mode string, des bool) {
		var last harness.GossipScalePoint
		for i := 0; i < b.N; i++ {
			p, err := harness.RunGossipScaleMode(harness.GossipScaleConfig{Seed: 7, Engine: harness.Engine{DES: des}}, n, mode)
			if err != nil {
				b.Fatal(err)
			}
			last = p
		}
		b.ReportMetric(last.SteadyBytesPerRound, "wire-bytes/round")
		b.ReportMetric(float64(last.ConvergedRound), "rounds-to-converge")
		if last.Messages == 0 {
			b.Fatalf("run moved no messages: %+v", last)
		}
		if mode == "gossip" && (last.Stats.RumorsDied == 0 || last.Stats.AERuns == 0) {
			b.Fatalf("epidemic never exercised death or anti-entropy: %+v", last.Stats)
		}
	}
	b.Run("mode=fanout/devices=1000", func(b *testing.B) { run(b, 1000, "fanout", false) })
	b.Run("mode=gossip/devices=1000", func(b *testing.B) { run(b, 1000, "gossip", false) })
	b.Run("mode=gossip/engine=des/devices=10000", func(b *testing.B) { run(b, 10000, "gossip", true) })
	b.Run("mode=gossip/engine=des/devices=50000", func(b *testing.B) {
		if testing.Short() {
			b.Skip("50k sweep skipped under -short")
		}
		run(b, 50000, "gossip", true)
	})
}

// --- Store-carry-forward delivery: epidemic vs social relay cost -----

// BenchmarkDTNDelivery is the DTN headline: sparse bus-line and campus
// worlds where most source/destination pairs never meet, so delivery
// rides on couriers carrying custody across partitions. Each case
// reports the delivery ratio, the mean delivery latency in contact
// rounds, and the headline copies-per-delivered-message — the wire
// cost of getting one message through. BENCH_dtn.json pins the
// epidemic:social copies-per-delivered ratio as a floor in both
// worlds: the GROUPS-NET-style social strategy must stay at least 2x
// cheaper than epidemic spray on the bus line (its sparsest, most
// courier-dependent world), or the claim regressed. The DES case runs
// the identical harness on the discrete-event engine.
func BenchmarkDTNDelivery(b *testing.B) {
	run := func(b *testing.B, n int, world, strat string, des bool) {
		var last harness.DTNScalePoint
		for i := 0; i < b.N; i++ {
			p, err := harness.RunDTNScaleMode(harness.DTNScaleConfig{Seed: 7, Engine: harness.Engine{DES: des}}, n, world, strat)
			if err != nil {
				b.Fatal(err)
			}
			last = p
		}
		b.ReportMetric(last.CopiesPerDelivered, "copies/delivered")
		b.ReportMetric(last.DeliveryRatio, "delivery-ratio")
		b.ReportMetric(last.MeanLatency, "latency-rounds")
		if last.Sent == 0 || last.Delivered == 0 {
			b.Fatalf("run delivered nothing: %+v", last)
		}
		if strat == "social" && last.DeliveryRatio < 0.9 {
			b.Fatalf("social delivery ratio %.2f below 0.9: %+v", last.DeliveryRatio, last)
		}
	}
	b.Run("world=bus/strategy=epidemic/devices=200", func(b *testing.B) { run(b, 200, "bus", "epidemic", false) })
	b.Run("world=bus/strategy=social/devices=200", func(b *testing.B) { run(b, 200, "bus", "social", false) })
	b.Run("world=campus/strategy=epidemic/devices=200", func(b *testing.B) { run(b, 200, "campus", "epidemic", false) })
	b.Run("world=campus/strategy=social/devices=200", func(b *testing.B) { run(b, 200, "campus", "social", false) })
	b.Run("world=bus/strategy=social/engine=des/devices=200", func(b *testing.B) {
		if testing.Short() {
			b.Skip("DES DTN sweep skipped under -short")
		}
		run(b, 200, "bus", "social", true)
	})
}
