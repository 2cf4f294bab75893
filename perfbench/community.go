package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/vtime"
)

// The community workload is the paper's application on the goroutine
// engine: Bluetooth clusters of PeerHood Community peers built with
// scenario.Builder. Each timed round, a seeded sixteenth of the members
// edit an interest through their profile.Store (bumping its epoch),
// every member refreshes its groups — conditional IF-EPOCH reads that
// unchanged servers answer with NOT_MODIFIED — and every eighth member
// sends a message to a cluster-mate, a write on the server side. One
// goroutine drives the members in order; each call returns before the
// next starts.

type communityConfig struct {
	Peers   int
	Cluster int
	Rounds  int
}

var communityDefaults = communityConfig{Peers: 192, Cluster: 16, Rounds: 6}

// baseVocab holds the fixed interests; slotVocab the one interest per
// member that edits rotate.
var (
	baseVocab = []string{"football", "biking", "music", "chess", "films", "news", "games", "food", "travel", "coffee"}
	slotVocab = []string{"sailing", "karaoke", "astronomy", "gardening", "orienteering", "sketching"}
)

type sentMessage struct {
	from, to int
	body     string
	round    int
}

func runCommunity(cfg communityConfig, seed int64, tr *tracer, setupOnly bool) (*episode, error) {
	ctx := context.Background()
	ep := &episode{executors: 1}
	n := cfg.Peers
	buf := tr.buf(n*cfg.Rounds*4 + 16)
	// Clients and servers keep every core busy.
	width := runtime.GOMAXPROCS(0)
	setup := startStopwatch(width)

	sp := buf.begin(kPlace)
	rng := rand.New(rand.NewSource(seed))
	clusters := (n + cfg.Cluster - 1) / cfg.Cluster
	cols := int(math.Ceil(math.Sqrt(float64(clusters))))
	members := make([]ids.MemberID, n)
	slot := make([]string, n)
	// Members always read their answers, so the servers' slow-reader
	// guard must never fire; its 30 s default is 30 µs of host time at
	// this scale, short enough for a descheduled server goroutine to trip
	// it, drop the session and make the run depend on host timing.
	b := scenario.NewBuilder().WithScale(vtime.NewScale(1e-6)).WithSeed(seed).
		WithServerOptions(community.ServerOptions{WriteTimeout: 24 * time.Hour})
	for i := range members {
		members[i] = ids.MemberID(fmt.Sprintf("m%04d", i))
		c := i / cfg.Cluster
		// Members of a cluster sit in a 4 m box, in range of each other;
		// clusters are 40 m apart, out of range.
		at := geo.Pt(float64(c%cols)*40+rng.Float64()*4, float64(c/cols)*40+rng.Float64()*4)
		a := rng.Intn(len(baseVocab))
		bb := (a + 1 + rng.Intn(len(baseVocab)-1)) % len(baseVocab)
		slot[i] = slotVocab[rng.Intn(len(slotVocab))]
		b.AddPeer(scenario.PeerSpec{Member: members[i], Position: at, Interests: []string{baseVocab[a], baseVocab[bb], slot[i]}})
	}
	buf.end(sp)

	sp = buf.begin(kScenarioBuild)
	dep, err := b.Build()
	buf.end(sp)
	if err != nil {
		return nil, err
	}
	defer dep.Stop()
	peers := make([]*scenario.Peer, n)
	byDevice := make(map[ids.DeviceID]int, n)
	for i, m := range members {
		peers[i] = dep.MustPeer(m)
		byDevice[peers[i].Daemon.Device()] = i
	}
	sp = buf.begin(kRefreshAll)
	err = dep.RefreshAll(ctx)
	buf.end(sp)
	if err != nil {
		return nil, err
	}
	sp = buf.begin(kPriming)
	for _, p := range peers {
		if _, err := p.Client.RefreshGroups(ctx); err != nil {
			buf.end(sp)
			return nil, err
		}
	}
	buf.end(sp)
	ep.setup = setup.lap()
	if setupOnly {
		return ep, nil
	}
	settle()

	netBefore := dep.Net.Counters()
	clientBefore, servedBefore := communityTotals(peers)
	rt := readRuntime()
	var sent, pending []sentMessage
	var latencies []float64
	var ops, opErrs int
	var reads uint64
	peak := 0
	sw := startStopwatch(width)
	for r := 0; r < cfg.Rounds; r++ {
		rr := rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
		for _, i := range rr.Perm(n)[:n/16] {
			next := slotVocab[rr.Intn(len(slotVocab))]
			if next == slot[i] {
				next = slotVocab[(indexOf(slotVocab, next)+1)%len(slotVocab)]
			}
			s := buf.begin(kRemoveInterest)
			err1 := peers[i].Store.RemoveInterest(members[i], slot[i])
			buf.end(s)
			s = buf.begin(kAddInterest)
			err2 := peers[i].Store.AddInterest(members[i], next)
			buf.end(s)
			slot[i] = next
			ops += 2
			opErrs += countErrs(err1, err2)
		}
		for _, p := range peers {
			calls := p.Client.Stats().CallsAttempted
			s := buf.begin(kRefreshGroups)
			_, err := p.Client.RefreshGroups(ctx)
			buf.end(s)
			reads += p.Client.Stats().CallsAttempted - calls
			ops++
			opErrs += countErrs(err)
			peak = max(peak, runtime.NumGoroutine())
		}
		for i := range peers {
			if (i+r)%8 != 0 {
				continue
			}
			first := (i / cfg.Cluster) * cfg.Cluster
			size := min(cfg.Cluster, n-first)
			j := first + (i-first+1+rr.Intn(size-1))%size
			msg := sentMessage{from: i, to: j, round: r, body: fmt.Sprintf("hello %s from %s #%d", members[j], members[i], rr.Int63())}
			s := buf.begin(kSendMessage)
			err := peers[i].Client.SendMessage(ctx, members[j], fmt.Sprintf("round %d", r), msg.body)
			buf.end(s)
			ops++
			opErrs += countErrs(err)
			sent = append(sent, msg)
			pending = append(pending, msg)
		}
		// A message counts as delivered in the first round whose end
		// finds it in the recipient's inbox.
		remain := pending[:0]
		for _, m := range pending {
			if inboxHas(peers[m.to], members[m.to], m.body) {
				latencies = append(latencies, float64(r-m.round+1))
				continue
			}
			remain = append(remain, m)
		}
		pending = remain
		ep.window(sw)
	}
	ep.runtime = readRuntime().since(rt)
	ep.runtime.goroutinesPeak = peak
	netAfter := dep.Net.Counters()
	clientAfter, servedAfter := communityTotals(peers)

	ep.devRounds = n * cfg.Rounds
	dr := float64(ep.devRounds)
	ep.attempted = int(clientAfter.CallsAttempted-clientBefore.CallsAttempted) + ops
	ep.failed = int(clientAfter.CallsFailed-clientBefore.CallsFailed) + opErrs
	ep.modeled = modeled{
		wireBytesPerDevRound: float64(netAfter.BytesDelivered-netBefore.BytesDelivered) / dr,
		deliveryRatio:        ratio(len(latencies), len(sent)),
		copiesPerDelivered:   ratio(len(sent), len(latencies)),
		deliveryRoundsP50:    roundsMedian(latencies),
	}
	ep.counters = netsimCounters(netBefore, netAfter, dr)
	ep.counters["community.calls_per_dev_round"] = float64(clientAfter.CallsAttempted-clientBefore.CallsAttempted) / dr
	ep.counters["community.not_modified_ratio"] = ratio(int(clientAfter.NotModified-clientBefore.NotModified), int(reads))
	ep.counters["community.fanouts_degraded"] = float64(clientAfter.FanoutsDegraded - clientBefore.FanoutsDegraded)
	ep.counters["community.served_per_dev_round"] = float64(servedAfter-servedBefore) / dr
	ep.fingerprint = fingerprint(ep)
	ep.oracle = checkCommunity(dep.Env, peers, members, byDevice, sent)
	return ep, nil
}

// checkCommunity is the community oracle: after the last round every
// client's groups equal DiscoverGroups over its radio neighbors' live
// profile stores, and every inbox holds exactly the messages sent to it.
func checkCommunity(env *radio.Environment, peers []*scenario.Peer, members []ids.MemberID, byDevice map[ids.DeviceID]int, sent []sentMessage) error {
	live := func(i int) (core.Member, error) {
		p, err := peers[i].Store.ActiveProfile()
		if err != nil {
			return core.Member{}, err
		}
		return core.Member{Device: peers[i].Daemon.Device(), ID: members[i], Interests: p.Interests}, nil
	}
	for i, p := range peers {
		self, err := live(i)
		if err != nil {
			return err
		}
		var nearby []core.Member
		for _, dev := range env.Neighbors(self.Device, radio.Bluetooth) {
			m, err := live(byDevice[dev])
			if err != nil {
				return err
			}
			nearby = append(nearby, m)
		}
		if err := sameGroups(p.Client.Groups(), core.DiscoverGroups(self, nearby, nil)); err != nil {
			return fmt.Errorf("community: %s: %w", members[i], err)
		}
	}
	want := make([][]string, len(peers))
	for _, m := range sent {
		want[m.to] = append(want[m.to], m.body)
	}
	for i, p := range peers {
		prof, err := p.Store.Get(members[i])
		if err != nil {
			return err
		}
		if len(prof.Inbox) != len(want[i]) {
			return fmt.Errorf("community: %s: inbox holds %d messages, %d were sent", members[i], len(prof.Inbox), len(want[i]))
		}
		for k, msg := range prof.Inbox {
			if msg.Body != want[i][k] || msg.To != members[i] {
				return fmt.Errorf("community: %s: inbox message %d is %q, sent %q", members[i], k, msg.Body, want[i][k])
			}
		}
	}
	return nil
}

func inboxHas(p *scenario.Peer, member ids.MemberID, body string) bool {
	prof, err := p.Store.Get(member)
	if err != nil {
		return false
	}
	for _, m := range prof.Inbox {
		if m.Body == body {
			return true
		}
	}
	return false
}

// communityTotals sums the clients' counters and the servers' served
// requests.
func communityTotals(peers []*scenario.Peer) (community.ClientStats, uint64) {
	var cs community.ClientStats
	var served uint64
	for _, p := range peers {
		cs.Add(p.Client.Stats())
		served += p.Server.Stats().Served
	}
	return cs, served
}

func countErrs(errs ...error) int {
	n := 0
	for _, err := range errs {
		if err != nil {
			n++
		}
	}
	return n
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
