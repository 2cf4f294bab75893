package dtn

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/vtime"
)

// testWorld builds a static world of DTN nodes at explicit positions
// (meters; Bluetooth range is 10) on either transport engine and
// returns the started nodes in device order.
type testWorld struct {
	env    *radio.Environment
	sched  *des.Scheduler // nil on the goroutine engine
	net    *netsim.Network
	nodes  []*Node
	devs   []ids.DeviceID
	events bool
	// goroutines is the goroutine count once the transport (and, when
	// started, the scheduler's runner and pool) is up, before any node.
	goroutines int
}

type worldOpts struct {
	cfg    Config
	seed   int64
	useDES bool
	// noRunner leaves the DES scheduler's background runner off: each
	// Round's own Await is then the only thing that moves virtual time.
	noRunner bool
	// events runs each round as a RoundEvent seeded with At and drained
	// by Run, as a sweep kernel drives it (needs useDES and noRunner).
	events bool
	// groups supplies per-node group views (may be nil).
	groups func(i int, devs []ids.DeviceID) func() []core.Group
}

func newTestWorld(t *testing.T, pos [][2]float64, o worldOpts) *testWorld {
	t.Helper()
	if o.seed == 0 {
		o.seed = 42
	}
	var sched *des.Scheduler
	envOpts := []radio.Option{radio.WithScale(vtime.NewScale(1e-6))}
	if o.useDES {
		sched = des.NewScheduler(o.seed, 4)
		envOpts = append(envOpts, radio.WithClock(sched.Clock()))
	}
	env := radio.NewEnvironment(envOpts...)
	w := &testWorld{env: env, events: o.events}
	for i := range pos {
		dev := ids.DeviceIDf("dev-%03d", i)
		w.devs = append(w.devs, dev)
		if err := env.Add(dev, mobility.Static{At: geo.Pt(pos[i][0], pos[i][1])}, radio.Bluetooth); err != nil {
			t.Fatal(err)
		}
	}
	if o.useDES {
		w.net = netsim.NewDES(env, o.seed, sched)
		t.Cleanup(sched.Stop)
		w.sched = sched
		if !o.noRunner {
			sched.Start()
			// Once the runner has executed an event, its pool is up.
			up := make(chan struct{})
			sched.At(0, 0, func(*des.Ctx) { close(up) })
			<-up
		}
	} else {
		w.net = netsim.New(env, o.seed)
	}
	t.Cleanup(w.net.Close)
	w.goroutines = runtime.NumGoroutine()
	for i := range pos {
		dev := w.devs[i]
		var groups func() []core.Group
		if o.groups != nil {
			groups = o.groups(i, w.devs)
		}
		node, err := NewNode(Params{
			Device:    dev,
			Neighbors: func() []ids.DeviceID { return env.Neighbors(dev, radio.Bluetooth) },
			Groups:    groups,
			Net:       w.net,
			Seed:      o.seed,
			Config:    o.cfg,
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

// sweep drives one sequential round on every node.
func (w *testWorld) sweep(ctx context.Context) {
	for i, n := range w.nodes {
		if !w.events {
			n.Round(ctx)
			continue
		}
		w.sched.At(0, netsim.DeviceHome(w.devs[i]), func(ctx *des.Ctx) { n.RoundEvent(ctx, func(*des.Ctx) {}) })
		w.sched.Run()
	}
}

// copiesOf is a white-box probe of a node's local copy budget for one
// bundle (0 when not held).
func (n *Node) copiesOf(id string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if bs := n.lookupLocked(id); bs != nil {
		return bs.copies
	}
	return 0
}

// assertBalanced fails the test when any node's custody identity is
// violated.
func assertBalanced(t *testing.T, w *testWorld) {
	t.Helper()
	for i, n := range w.nodes {
		if s := n.Stats(); !s.CustodyBalanced() {
			t.Fatalf("node %d custody unbalanced: %+v", i, s)
		}
	}
}

// lineWorld is three devices in a chain: 0—1 and 1—2 are in Bluetooth
// range, 0—2 is not. Multi-hop is the only path.
func lineWorld() [][2]float64 {
	return [][2]float64{{0, 0}, {8, 0}, {16, 0}}
}

func TestDirectDeliveryOneRound(t *testing.T) {
	t.Parallel()
	w := newTestWorld(t, [][2]float64{{0, 0}, {5, 0}}, worldOpts{})
	ctx := context.Background()
	payload := []byte("hello across the room")
	id, err := w.nodes[0].Send(w.devs[1], payload)
	if err != nil {
		t.Fatal(err)
	}
	w.sweep(ctx)
	if !w.nodes[1].Consumed(id) {
		t.Fatal("bundle not delivered after one round of direct contact")
	}
	got := w.nodes[1].Received()
	if len(got) != 1 || !bytes.Equal(got[0].Payload, payload) || got[0].Src != w.devs[0] {
		t.Fatalf("received = %+v, want one message with original payload", got)
	}
	src := w.nodes[0].Stats()
	if src.Transferred != 1 || src.CopiesSent != 1 || src.Buffered != 0 {
		t.Fatalf("source stats after direct delivery: %+v", src)
	}
	dst := w.nodes[1].Stats()
	if dst.Delivered != 1 || dst.Accepted != 1 {
		t.Fatalf("destination stats after direct delivery: %+v", dst)
	}
	assertBalanced(t, w)
}

func TestMultiHopLineDelivery(t *testing.T) {
	t.Parallel()
	w := newTestWorld(t, lineWorld(), worldOpts{})
	ctx := context.Background()
	id, err := w.nodes[0].Send(w.devs[2], []byte("two hops"))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4 && !w.nodes[2].Consumed(id); r++ {
		w.sweep(ctx)
	}
	if !w.nodes[2].Consumed(id) {
		t.Fatal("bundle did not cross the partition via the relay")
	}
	if relay := w.nodes[1].Stats(); relay.Accepted == 0 {
		t.Fatalf("relay never took custody: %+v", relay)
	}
	assertBalanced(t, w)
}

// TestEpidemicBudgetConserved pins binary spray-and-wait: one source
// round over three reachable relays splits an 8-copy budget 4/2/1 and
// retains the last copy; the fleet-wide copy total never exceeds the
// budget.
func TestEpidemicBudgetConserved(t *testing.T) {
	t.Parallel()
	// Star: relays are in range of the source only; the destination
	// (index 4) is unreachable by everyone.
	pos := [][2]float64{{0, 0}, {9, 0}, {-9, 0}, {0, 9}, {100, 100}}
	w := newTestWorld(t, pos, worldOpts{cfg: Config{CopyBudget: 8}})
	ctx := context.Background()
	id, err := w.nodes[0].Send(w.devs[4], []byte("sprayed"))
	if err != nil {
		t.Fatal(err)
	}
	w.nodes[0].Round(ctx)
	total := 0
	for _, n := range w.nodes {
		total += n.copiesOf(id)
	}
	if total != 8 {
		t.Fatalf("fleet copy total = %d, want the full budget 8", total)
	}
	if got := w.nodes[0].copiesOf(id); got != 1 {
		t.Fatalf("source retained %d copies, want 1 after three binary splits", got)
	}
	// The last copy is direct-delivery only: another source round over
	// the same relays must not move it.
	w.nodes[0].Round(ctx)
	if got := w.nodes[0].copiesOf(id); got != 1 {
		t.Fatalf("source last copy moved: %d", got)
	}
	assertBalanced(t, w)
}

// TestEpidemicLastCopyWaitsForDestination pins the "wait" half of
// spray-and-wait: a single-copy epidemic bundle never leaves the
// source except to its destination.
func TestEpidemicLastCopyWaitsForDestination(t *testing.T) {
	t.Parallel()
	w := newTestWorld(t, lineWorld(), worldOpts{cfg: Config{CopyBudget: 1}})
	ctx := context.Background()
	id, err := w.nodes[0].Send(w.devs[2], []byte("stuck"))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		w.sweep(ctx)
	}
	if w.nodes[2].Consumed(id) {
		t.Fatal("single epidemic copy crossed a partition it cannot reach")
	}
	if got := w.nodes[0].copiesOf(id); got != 1 {
		t.Fatalf("source lost its last copy: %d", got)
	}
	if relay := w.nodes[1].Stats(); relay.CopiesReceived != 0 {
		t.Fatalf("relay took custody of a waiting last copy: %+v", relay)
	}
	assertBalanced(t, w)
}

// socialGroups gives node i a group view declaring shared interests
// with specific other devices.
func socialGroups(shares map[int][]int, interest string) func(i int, devs []ids.DeviceID) func() []core.Group {
	return func(i int, devs []ids.DeviceID) func() []core.Group {
		peers := shares[i]
		if len(peers) == 0 {
			return func() []core.Group { return nil }
		}
		return func() []core.Group {
			members := []core.Member{{Device: devs[i]}}
			for _, j := range peers {
				members = append(members, core.Member{Device: devs[j]})
			}
			return []core.Group{{Interest: interest, Members: members}}
		}
	}
}

// TestSocialHandoffClimbsGradient: under the social strategy a last
// copy is handed over (full custody transfer) to a strictly better
// relay — here the middle node shares a group with the destination —
// and then delivered, where epidemic spray-and-wait provably stalls
// (see TestEpidemicLastCopyWaitsForDestination).
func TestSocialHandoffClimbsGradient(t *testing.T) {
	t.Parallel()
	w := newTestWorld(t, lineWorld(), worldOpts{
		cfg:    Config{Strategy: Social, CopyBudget: 1},
		groups: socialGroups(map[int][]int{1: {2}}, "chess"),
	})
	ctx := context.Background()
	id, err := w.nodes[0].Send(w.devs[2], []byte("uphill"))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4 && !w.nodes[2].Consumed(id); r++ {
		w.sweep(ctx)
	}
	if !w.nodes[2].Consumed(id) {
		t.Fatal("social handoff did not deliver across the partition")
	}
	src := w.nodes[0].Stats()
	if src.Transferred != 1 || src.Buffered != 0 {
		t.Fatalf("source did not hand custody over: %+v", src)
	}
	assertBalanced(t, w)
}

// TestSocialRefusesWorseRelay: a peer with no better social utility
// toward the destination declines custody entirely.
func TestSocialRefusesWorseRelay(t *testing.T) {
	t.Parallel()
	// The SOURCE shares a group with the destination; the relay shares
	// nothing, so its utility (0) never exceeds the source's (1).
	w := newTestWorld(t, lineWorld(), worldOpts{
		cfg:    Config{Strategy: Social, CopyBudget: 4},
		groups: socialGroups(map[int][]int{0: {2}}, "biking"),
	})
	ctx := context.Background()
	id, err := w.nodes[0].Send(w.devs[2], []byte("hold on"))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		w.sweep(ctx)
	}
	if relay := w.nodes[1].Stats(); relay.CopiesReceived != 0 {
		t.Fatalf("worse relay accepted custody: %+v", relay)
	}
	if got := w.nodes[0].copiesOf(id); got != 4 {
		t.Fatalf("source budget changed without a transfer: %d", got)
	}
	assertBalanced(t, w)
}

// TestVaccinePurgesSprayCopies: once the destination consumes a
// bundle, the delivered-ack anti-packet flows backward on the next
// contact and purges the source's leftover copies.
func TestVaccinePurgesSprayCopies(t *testing.T) {
	t.Parallel()
	w := newTestWorld(t, lineWorld(), worldOpts{cfg: Config{CopyBudget: 4}})
	ctx := context.Background()
	id, err := w.nodes[0].Send(w.devs[2], []byte("vaccinate"))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4 && (!w.nodes[2].Consumed(id) || w.nodes[0].copiesOf(id) > 0); r++ {
		w.sweep(ctx)
	}
	if !w.nodes[2].Consumed(id) {
		t.Fatal("bundle not delivered")
	}
	if w.nodes[0].copiesOf(id) != 0 {
		t.Fatal("source still holds copies after the delivered-ack came back")
	}
	if src := w.nodes[0].Stats(); src.Purged == 0 {
		t.Fatalf("source never purged: %+v", src)
	}
	if !w.nodes[0].KnowsDelivered(id) {
		t.Fatal("source never learned of the delivery")
	}
	assertBalanced(t, w)
}

// TestTTLExpiresBeforeForwarding: a TTL-1 bundle dies in the source's
// next round before any offer goes out — an expired message is never
// forwarded.
func TestTTLExpiresBeforeForwarding(t *testing.T) {
	t.Parallel()
	w := newTestWorld(t, [][2]float64{{0, 0}, {5, 0}}, worldOpts{})
	ctx := context.Background()
	id, err := w.nodes[0].SendTTL(w.devs[1], []byte("short lived"), 1)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		w.sweep(ctx)
	}
	if w.nodes[1].Consumed(id) {
		t.Fatal("expired bundle was forwarded and delivered")
	}
	src := w.nodes[0].Stats()
	if src.Expired != 1 || src.OffersSent != 0 || src.Buffered != 0 {
		t.Fatalf("source stats after expiry: %+v", src)
	}
	if peer := w.nodes[1].Stats(); peer.OffersServed != 0 {
		t.Fatalf("peer served an offer for an expired bundle: %+v", peer)
	}
	assertBalanced(t, w)
}

// TestCrashRestartDropsVolatileOnly: a restart loses the relay buffer
// (counted as CrashDropped) but keeps the source outbox, the inbox and
// the delivered log.
func TestCrashRestartDropsVolatileOnly(t *testing.T) {
	t.Parallel()
	w := newTestWorld(t, lineWorld(), worldOpts{cfg: Config{CopyBudget: 4}})
	ctx := context.Background()
	// Park a relayed bundle on the middle node (destination stays out
	// of range of the source).
	relayed, err := w.nodes[0].Send(w.devs[2], []byte("in transit"))
	if err != nil {
		t.Fatal(err)
	}
	w.nodes[0].Round(ctx)
	if w.nodes[1].copiesOf(relayed) == 0 {
		t.Fatal("relay never took custody")
	}
	// Give the relay its own outbox message too.
	own, err := w.nodes[1].Send(w.devs[0], []byte("mine"))
	if err != nil {
		t.Fatal(err)
	}
	w.nodes[1].SetDown(true)
	w.nodes[1].DropVolatile()
	w.nodes[1].SetDown(false)
	if w.nodes[1].copiesOf(relayed) != 0 {
		t.Fatal("relay buffer survived the crash")
	}
	if w.nodes[1].copiesOf(own) == 0 {
		t.Fatal("source outbox did not survive the crash")
	}
	s := w.nodes[1].Stats()
	if s.CrashDropped != 1 {
		t.Fatalf("CrashDropped = %d, want 1", s.CrashDropped)
	}
	assertBalanced(t, w)
	// The source still holds copies, so post-heal rounds re-deliver
	// the relayed bundle end to end.
	for r := 0; r < 6 && !w.nodes[2].Consumed(relayed); r++ {
		w.sweep(ctx)
	}
	if !w.nodes[2].Consumed(relayed) {
		t.Fatal("bundle lost to the crash despite source retention")
	}
}

// TestDownNodeRefusesWork: while down, Round is a no-op, Send fails
// and inbound contacts die.
func TestDownNodeRefusesWork(t *testing.T) {
	t.Parallel()
	w := newTestWorld(t, [][2]float64{{0, 0}, {5, 0}}, worldOpts{})
	ctx := context.Background()
	w.nodes[1].SetDown(true)
	if _, err := w.nodes[1].Send(w.devs[0], []byte("x")); err != ErrDown {
		t.Fatalf("Send on a down node: err = %v, want ErrDown", err)
	}
	id, err := w.nodes[0].Send(w.devs[1], []byte("to the dead"))
	if err != nil {
		t.Fatal(err)
	}
	w.sweep(ctx)
	if w.nodes[1].Consumed(id) {
		t.Fatal("down node consumed a bundle")
	}
	if down := w.nodes[1].Stats(); down.Rounds != 0 {
		t.Fatalf("down node executed a round: %+v", down)
	}
	w.nodes[1].SetDown(false)
	w.sweep(ctx)
	if !w.nodes[1].Consumed(id) {
		t.Fatal("bundle not delivered after the node came back")
	}
	assertBalanced(t, w)
}

// driveReplay runs a fixed workload and returns the per-node trace
// digests.
func driveReplay(t *testing.T, seed int64, useDES bool) []uint64 {
	t.Helper()
	pos := [][2]float64{{0, 0}, {8, 0}, {16, 0}, {8, 8}}
	w := newTestWorld(t, pos, worldOpts{cfg: Config{CopyBudget: 4, TTLRounds: 6}, seed: seed, useDES: useDES})
	ctx := context.Background()
	if _, err := w.nodes[0].Send(w.devs[2], []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.nodes[3].Send(w.devs[0], []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.nodes[1].Send(w.devs[3], []byte("gamma")); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		w.sweep(ctx)
	}
	out := make([]uint64, len(w.nodes))
	for i, n := range w.nodes {
		out[i] = n.TraceDigest()
	}
	return out
}

// TestReplayDigestDeterministic: the same seed replays the same
// custody trace byte for byte; a different seed does not.
func TestReplayDigestDeterministic(t *testing.T) {
	t.Parallel()
	a := driveReplay(t, 7, false)
	b := driveReplay(t, 7, false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d trace diverged across identical runs: %x vs %x", i, a[i], b[i])
		}
	}
	c := driveReplay(t, 8, false)
	if a[0] == c[0] {
		t.Fatal("different seeds produced identical trace digests")
	}
}

// TestDESEngineParity: the node never sleeps or reads clocks, so the
// same fault-free workload behind netsim.NewDES must produce the same
// custody traces as the goroutine engine, not just the same outcome.
func TestDESEngineParity(t *testing.T) {
	t.Parallel()
	gr := driveReplay(t, 7, false)
	ds := driveReplay(t, 7, true)
	for i := range gr {
		if gr[i] != ds[i] {
			t.Fatalf("node %d trace differs across engines: goroutine %x, des %x", i, gr[i], ds[i])
		}
	}
}
