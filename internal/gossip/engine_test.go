package gossip

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/testutil"
	"repro/internal/vtime"
)

// engineMode selects how a world's transport runs: the goroutine
// engine (blocking handshakes, the oracle), the discrete-event engine
// with its background runner started, the discrete-event engine with
// no runner at all, where Round's own Await is the only thing that
// moves virtual time, or no runner and each round a RoundEvent seeded
// with At and drained by Run, as a sweep kernel drives it.
type engineMode int

const (
	engineGoroutine engineMode = iota
	engineDESStarted
	engineDESAwait
	engineDESEvent
)

func (m engineMode) String() string {
	return [...]string{"goroutine", "des-started", "des-await", "des-event"}[m]
}

// engineWorld is a static world of gossip nodes on one engine.
// goroutines is the goroutine count once the transport (and, when
// started, the scheduler's runner and pool) is up, before any node.
type engineWorld struct {
	sched      *des.Scheduler
	net        *netsim.Network
	devs       []ids.DeviceID
	nodes      []*Node
	goroutines int
}

// newEngineWorld places one device per position (meters; Bluetooth
// range is 10) and starts a gossip node on each, with record(i)
// supplying device i's current record.
func newEngineWorld(t *testing.T, mode engineMode, pos []geo.Point, cfg Config, record func(i int) Record) *engineWorld {
	t.Helper()
	w := &engineWorld{}
	opts := []radio.Option{radio.WithScale(vtime.NewScale(1e-6))}
	if mode != engineGoroutine {
		w.sched = des.NewScheduler(11, 4)
		opts = append(opts, radio.WithClock(w.sched.Clock()))
	}
	env := radio.NewEnvironment(opts...)
	w.devs = make([]ids.DeviceID, len(pos))
	for i, at := range pos {
		w.devs[i] = ids.DeviceIDf("eng-%03d", i)
		if err := env.Add(w.devs[i], mobility.Static{At: at}, radio.Bluetooth); err != nil {
			t.Fatal(err)
		}
	}
	if w.sched != nil {
		w.net = netsim.NewDES(env, 11, w.sched)
		t.Cleanup(w.sched.Stop)
		if mode == engineDESStarted {
			w.sched.Start()
			// Once the runner has executed an event, its pool is up.
			up := make(chan struct{})
			w.sched.At(0, 0, func(*des.Ctx) { close(up) })
			<-up
		}
	} else {
		w.net = netsim.New(env, 11)
	}
	t.Cleanup(w.net.Close)
	w.goroutines = runtime.NumGoroutine()
	for i, dev := range w.devs {
		i, dev := i, dev
		node, err := NewNode(Params{
			Device:    dev,
			Member:    ids.MemberID(fmt.Sprintf("em-%03d", i)),
			Self:      func() Record { return record(i) },
			Neighbors: func() []ids.DeviceID { return env.Neighbors(dev, radio.Bluetooth) },
			Net:       w.net,
			Seed:      11,
			Config:    cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		w.nodes = append(w.nodes, node)
	}
	return w
}

// engineSnapshot is everything a gossip run leaves observable.
type engineSnapshot struct {
	Stats   []Stats
	Records [][]Record
	Views   []map[string][]ids.MemberID
}

// driveEngineWorld runs the parity workload on one engine: a line of
// ten devices (each reaches two hops either way), several interests,
// Fanout 2 and anti-entropy every third round, with two profile edits
// halfway through. It returns the final observables and how many
// goroutines the nodes and rounds added.
func driveEngineWorld(t *testing.T, mode engineMode) (engineSnapshot, int) {
	const n, rounds = 10, 16
	pool := []string{"football", "music", "chess", "films"}
	epochs := make([]uint64, n)
	interests := make([][]string, n)
	for i := range epochs {
		epochs[i] = 1
		interests[i] = []string{pool[i%len(pool)], pool[(i/3)%len(pool)]}
	}
	// Unsynchronized on purpose: Round and Refresh call Self on the
	// driving goroutine on every engine, RoundEvent inside an event that
	// Run orders after the driving goroutine's edits, and -race holds
	// them to it.
	record := func(i int) Record {
		return Record{Epoch: epochs[i], Interests: append([]string(nil), interests[i]...)}
	}
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Pt(4.5*float64(i), 0)
	}
	w := newEngineWorld(t, mode, pos, Config{Fanout: 2, AEEvery: 3, HotCount: 3}, record)
	ctx := context.Background()
	for r := 0; r < rounds; r++ {
		if r == rounds/2 {
			for _, i := range []int{2, 7} {
				epochs[i]++
				interests[i] = append(interests[i], fmt.Sprintf("edit-%d", i))
			}
		}
		for i, node := range w.nodes {
			if mode != engineDESEvent {
				node.Round(ctx)
				continue
			}
			w.sched.At(0, netsim.DeviceHome(w.devs[i]), func(ctx *des.Ctx) { node.RoundEvent(ctx, func(*des.Ctx) {}) })
			w.sched.Run()
		}
	}
	added := runtime.NumGoroutine() - w.goroutines
	if mode == engineDESEvent {
		// Run's own pool workers signal their WaitGroup just before
		// they return, so give them the leak checker's settle window.
		added = testutil.GoroutinesAbove(w.goroutines)
	}
	var snap engineSnapshot
	for _, node := range w.nodes {
		node.Refresh()
		snap.Stats = append(snap.Stats, node.Stats())
		snap.Records = append(snap.Records, node.Records())
		view := make(map[string][]ids.MemberID)
		for _, g := range node.Groups() {
			view[g.Interest] = g.MemberIDs()
		}
		snap.Views = append(snap.Views, view)
	}
	return snap, added
}

// TestEngineParity runs one seeded world on the goroutine engine, on
// the discrete-event engine with its runner started, on the
// discrete-event engine with Round's Await alone, and with RoundEvent
// rounds drained by Run. The blocking handshakes and the event
// cascades walk the same plan and build the same frames, so all four
// must agree on every counter, record and group view. On the event
// engine the nodes serve through AcceptEvent and rounds are cascades,
// so no goroutine is added.
func TestEngineParity(t *testing.T) {
	oracle, _ := driveEngineWorld(t, engineGoroutine)
	var total Stats
	for _, s := range oracle.Stats {
		total.Add(s)
	}
	if total.PushesSent == 0 || total.AERuns == 0 || total.RecordsLearned == 0 {
		t.Fatalf("parity workload exercised too little: %+v", total)
	}
	for _, mode := range []engineMode{engineDESStarted, engineDESAwait, engineDESEvent} {
		got, added := driveEngineWorld(t, mode)
		for i := range oracle.Stats {
			if got.Stats[i] != oracle.Stats[i] {
				t.Errorf("%v: node %d stats %+v, goroutine engine %+v", mode, i, got.Stats[i], oracle.Stats[i])
			}
		}
		if !reflect.DeepEqual(got.Records, oracle.Records) {
			t.Errorf("%v: records differ from the goroutine engine", mode)
		}
		if !reflect.DeepEqual(got.Views, oracle.Views) {
			t.Errorf("%v: group views %v, goroutine engine %v", mode, got.Views, oracle.Views)
		}
		if mode != engineDESAwait && added > 0 {
			t.Errorf("%v: nodes and rounds added %d goroutines, want none", mode, added)
		}
	}
}

// TestEventCostPinned pins how many scheduler events one handshake
// costs on the event engine, so close polling (a serving end closing
// while its reply is in flight polls every flush retry) cannot creep
// back. A rumor push is the seed, the dial completion, the rumor and
// ack deliveries, and the serving end's close callback, which the
// initiator's close schedules at the same instant; an anti-entropy run
// adds the closing delta and the final ack. With no background runner
// the count is exact.
func TestEventCostPinned(t *testing.T) {
	cases := []struct {
		name      string
		cfg       Config
		maxEvents uint64
		check     func(s Stats) bool
	}{
		{"rumor-push", Config{DisableAntiEntropy: true}, 5, func(s Stats) bool { return s.PushesSent == 1 && s.AERuns == 0 }},
		{"anti-entropy", Config{DisableRumors: true, AEEvery: 1}, 7, func(s Stats) bool { return s.AERuns == 1 && s.PushesSent == 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pos := []geo.Point{geo.Pt(0, 0), geo.Pt(3, 0)}
			w := newEngineWorld(t, engineDESAwait, pos, tc.cfg, func(i int) Record {
				return Record{Epoch: 1, Interests: []string{"chess"}}
			})
			before := w.sched.EventsExecuted()
			w.nodes[0].Round(context.Background())
			events := w.sched.EventsExecuted() - before
			if s := w.nodes[0].Stats(); !tc.check(s) || s.PushErrors+s.AEErrors != 0 {
				t.Fatalf("round did not run exactly one clean %s: %+v", tc.name, s)
			}
			if events > tc.maxEvents {
				t.Fatalf("one %s ran %d scheduler events, want at most %d", tc.name, events, tc.maxEvents)
			}
		})
	}
}

// TestMangledAckFailsPush: a rumor push whose ack fails to decode is a
// failed push on both engines — counted in PushErrors (so it reaches
// the failure ratio) and FramesRejected, never in PushesSent — and the
// partner's cached digest is dropped, as after any other failure.
func TestMangledAckFailsPush(t *testing.T) {
	mangled := MarshalAck(FrameAck{KnownMask: []byte{1}})
	mangled[len(mangled)-1] ^= 0xff
	if _, err := UnmarshalAck(mangled); err == nil {
		t.Fatal("mangled ack still decodes")
	}
	for _, mode := range []engineMode{engineGoroutine, engineDESAwait} {
		t.Run(mode.String(), func(t *testing.T) {
			pos := []geo.Point{geo.Pt(0, 0), geo.Pt(3, 0)}
			w := newEngineWorld(t, mode, pos[:1], Config{DisableAntiEntropy: true}, func(i int) Record {
				return Record{Epoch: 1, Interests: []string{"chess"}}
			})
			// The partner is a bare service that answers any rumor
			// with the mangled ack.
			peer := ids.DeviceID("eng-peer")
			if err := w.net.Environment().Add(peer, mobility.Static{At: pos[1]}, radio.Bluetooth); err != nil {
				t.Fatal(err)
			}
			lis, err := w.net.Listen(peer, Port)
			if err != nil {
				t.Fatal(err)
			}
			svc := lis.Serve(func(ids.DeviceID, []byte) ([]byte, netsim.ServeStep) { return mangled, nil })
			node := w.nodes[0]
			node.mu.Lock()
			node.peerHave[peer] = NewBloom(1, 0.01, 1) // a cached digest covering nothing
			node.mu.Unlock()
			node.Round(context.Background())
			svc.Stop()
			s := node.Stats()
			if s.PushErrors != 1 || s.FramesRejected != 1 || s.PushesSent != 0 {
				t.Fatalf("mangled ack accounted as %+v, want one push error and one rejected frame", s)
			}
			node.mu.Lock()
			_, cached := node.peerHave[peer]
			node.mu.Unlock()
			if cached {
				t.Fatal("the partner's cached digest survived a failed push")
			}
		})
	}
}
