package simtest

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/community"
	"repro/internal/faults"
	"repro/internal/ids"
	"repro/internal/scenario"
	"repro/internal/vtime"
)

// assertEndpointInvariants is the endpoint-fault rows' check: no
// invariant violated, oracle reconvergence and traffic driven, plus
// evidence the endpoint fault plane was live — a wedged peer must
// actually have had replies withheld, a crashed peer must actually have
// been denied.
func assertEndpointInvariants(t *testing.T, sc Scenario, res *Result) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if !res.Reconverged {
		t.Errorf("group views never reconverged (rounds=%d, faults=%+v, client=%+v)",
			res.RoundsToReconverge, res.Faults, res.Client)
	}
	if res.Calls == 0 {
		t.Error("scenario drove no traffic")
	}
	if sc.StalledPeers > 0 && res.Faults.MessagesStalled == 0 {
		t.Errorf("wedged peer withheld nothing: %+v", res.Faults)
	}
	if sc.CrashedPeers > 0 && res.Faults.CrashDenials == 0 {
		t.Errorf("crashed peer denied nothing: %+v", res.Faults)
	}
}

// TestChaosEndpointReplay runs a stall-only scenario twice from one
// seed: the endpoint fault plane must replay byte for byte. Stall fates
// are pure in (server, peer, connSeq) and each directed pair is dialed
// from a single peer's sequential workload, so both the counters and
// the full withheld-reply trace must match; only the trace's append
// order across concurrent peers is timing-dependent, so events are
// compared as a canonically sorted multiset.
func TestChaosEndpointReplay(t *testing.T) {
	sc := Scenario{
		Name:  "endpoint-replay",
		Seed:  1301,
		Peers: 4,
		Stall: 0.35,
	}
	r1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Faults != r2.Faults {
		t.Errorf("fault counters diverged across replays:\n  run1: %+v\n  run2: %+v", r1.Faults, r2.Faults)
	}
	e1, e2 := canonicalEvents(r1.Events), canonicalEvents(r2.Events)
	if len(e1) != len(e2) {
		t.Fatalf("event traces diverged: %d vs %d events", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d diverged across replays:\n  run1: %+v\n  run2: %+v", i, e1[i], e2[i])
		}
	}
	if r1.Faults.MessagesStalled == 0 {
		t.Errorf("replay scenario stalled nothing: %+v", r1.Faults)
	}
	if !r1.Reconverged || !r2.Reconverged {
		t.Errorf("replay runs did not reconverge: %v / %v", r1.Reconverged, r2.Reconverged)
	}
}

// canonicalEvents orders a trace by content so traces from concurrent
// runs compare as multisets.
func canonicalEvents(in []faults.Event) []faults.Event {
	out := append([]faults.Event(nil), in...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.ConnSeq != b.ConnSeq {
			return a.ConnSeq < b.ConnSeq
		}
		return a.MsgSeq < b.MsgSeq
	})
	return out
}

// TestChaosWedgedPeerBreakerReconverges drives the breaker's full arc
// against a gray-failed peer: the observer's neighbor table still lists
// a peer whose serving side has wedged (the connection dials fine, the
// replies never come), so fan-outs pay its call deadline until the
// breaker trips; after the wedge heals, the half-open probe must
// re-admit the peer and group discovery must see it again. The observer
// deliberately never re-runs radio discovery during the wedge — a fresh
// inquiry would drop the silent peer from the table, which is the
// *other* degradation path and is covered by the endpoint suite.
func TestChaosWedgedPeerBreakerReconverges(t *testing.T) {
	const peers = 6
	b := scenario.NewBuilder().WithScale(vtime.NewScale(1e-3)).WithSeed(31).
		WithResilience(community.ResilienceOptions{
			FailureThreshold: 2,
			OpenFor:          time.Second, // floored at 500ms real
		})
	for i := 0; i < peers; i++ {
		b.AddPeer(scenario.PeerSpec{
			Member:    idsMember(i),
			Position:  circlePos(i, peers),
			Interests: []string{interestPool[i%len(interestPool)]},
		})
	}
	dep, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	ctx := context.Background()
	if err := dep.RefreshAll(ctx); err != nil {
		t.Fatal(err)
	}

	observer := dep.MustPeer(idsMember(0))
	wedged := dep.MustPeer(idsMember(3)).Daemon.Device()
	dep.Net.SetFaults(faults.New(31).
		SetEndpoints(faults.EndpointProfile{StallFor: 24 * time.Hour}).
		AddStall(faults.StallWindow{Device: wedged, Start: 0, End: 24 * time.Hour}))

	// Gray-failure rounds: each fan-out pays the wedged call's deadline
	// and records the failure until the breaker opens.
	for i := 0; i < 4 && observer.Client.Stats().BreakerOpens == 0; i++ {
		_, _ = observer.Client.RefreshGroups(ctx)
	}
	st := observer.Client.Stats()
	if st.BreakerOpens == 0 {
		t.Fatalf("fan-outs never tripped the wedged peer's breaker: %+v", st)
	}
	if st.FanoutsDegraded == 0 {
		t.Errorf("degraded fan-outs were not reported: %+v", st)
	}

	// Heal. Once the open window (real-time floored) lapses, the next
	// call is the half-open probe and must re-admit the peer.
	dep.Net.SetFaults(nil)
	clock := dep.Env.Clock()
	deadline := clock.Now().Add(10 * time.Second)
	readmitted := false
	for clock.Now().Before(deadline) {
		if err := observer.Client.Ping(ctx, wedged); err == nil {
			readmitted = true
			break
		}
		clock.Sleep(50 * time.Millisecond)
	}
	if !readmitted {
		t.Fatalf("healed peer was never re-admitted: %+v", observer.Client.Stats())
	}
	if st := observer.Client.Stats(); st.BreakerReadmits == 0 {
		t.Errorf("readmission not counted: %+v", st)
	}
	// And the healed peer is part of group discovery again.
	nearby, err := observer.Client.NearbyMembers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range nearby {
		if m.ID == idsMember(3) {
			found = true
		}
	}
	if !found {
		t.Errorf("healed peer missing from discovery: %v", nearby)
	}
}

// TestChaosCrashRestartRecovers crashes one peer for the whole fault
// phase; lifting the plan is its restart. The restarted peer must be
// rediscovered and every view — including its own, served from its
// intact state — must reconverge to the fault-free oracle.
func TestChaosCrashRestartRecovers(t *testing.T) {
	res, err := Run(Scenario{
		Name:         "crash-restart",
		Seed:         47,
		Peers:        5,
		Rounds:       2,
		Loss:         0.05,
		CrashedPeers: 1,
		Resilience:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if !res.Reconverged {
		t.Errorf("deployment never recovered the restarted peer (rounds=%d, client=%+v)",
			res.RoundsToReconverge, res.Client)
	}
	if res.Faults.CrashDenials == 0 {
		t.Errorf("crash window denied nothing: %+v", res.Faults)
	}
	if res.CallErrors == 0 {
		t.Error("no call ever failed against the crashed peer")
	}
}

// TestChaosHedgesFireUnderStalls runs a stall-heavy scenario with
// hedging armed: once the latency window is primed, reads that hit a
// stalled session must launch hedged spares, and the fresh sessions'
// independent stall draws must let at least one spare win the race.
func TestChaosHedgesFireUnderStalls(t *testing.T) {
	res, err := Run(Scenario{
		Name:       "hedges-under-stalls",
		Seed:       83,
		Peers:      6,
		Rounds:     3,
		Stall:      0.3,
		Resilience: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if !res.Reconverged {
		t.Errorf("stall scenario never reconverged (rounds=%d)", res.RoundsToReconverge)
	}
	if res.Faults.MessagesStalled == 0 {
		t.Errorf("stall knob withheld nothing: %+v", res.Faults)
	}
	if res.Client.HedgesLaunched == 0 {
		t.Errorf("no hedge ever fired under stalls: %+v", res.Client)
	}
	if res.Client.HedgeWins == 0 {
		t.Errorf("no hedged spare ever won the race: %+v", res.Client)
	}
}

// TestChaosStalledPeerSteadyRoundBounded pins the headline degradation
// bound: in a 100-device neighborhood with one gray-failed (wedged)
// peer, an observer's first discovery round pays the stall deadline and
// trips the breaker — and every steady round after that must complete
// well under the stall deadline, because the fan-out skips the open
// circuit instead of re-probing the wedge.
func TestChaosStalledPeerSteadyRoundBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("100-device world; skipped in -short mode")
	}
	const peers = 100
	// steadyBudget is the pinned per-round bound. The wedged call alone
	// costs the full 2s-real robust-call floor, so a steady round beating
	// this budget proves the breaker is carrying the fan-out.
	const steadyBudget = time.Second

	b := scenario.NewBuilder().WithScale(vtime.NewScale(1e-3)).WithSeed(9).
		WithResilience(community.ResilienceOptions{
			FailureThreshold: 1,
			// Hold the circuit open across all measured rounds.
			OpenFor: 2 * time.Hour,
		})
	for i := 0; i < peers; i++ {
		b.AddPeer(scenario.PeerSpec{
			Member:    idsMember(i),
			Position:  circlePos(i, peers),
			Interests: []string{interestPool[i%len(interestPool)]},
		})
	}
	dep, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	ctx := context.Background()

	observer := dep.MustPeer(idsMember(0))
	if err := observer.Daemon.RefreshNow(ctx); err != nil {
		t.Fatal(err)
	}

	wedged := dep.MustPeer(idsMember(50)).Daemon.Device()
	// StallFor must beat the 2s-real robust-call deadline floor at this
	// scale, or the wedge degenerates into slowness.
	dep.Net.SetFaults(faults.New(9).
		SetEndpoints(faults.EndpointProfile{StallFor: 24 * time.Hour}).
		AddStall(faults.StallWindow{Device: wedged, Start: 0, End: 24 * time.Hour}))

	// Round 1 pays the wedge: the call into the stalled session times
	// out and opens its breaker.
	clock := dep.Env.Clock()
	if _, err := observer.Client.RefreshGroups(ctx); err != nil {
		t.Logf("first round degraded (expected): %v", err)
	}
	st := observer.Client.Stats()
	if st.BreakerOpens == 0 {
		t.Fatalf("first round never tripped the wedged peer's breaker: %+v", st)
	}

	for round := 2; round <= 4; round++ {
		start := clock.Now()
		if _, err := observer.Client.RefreshGroups(ctx); err != nil {
			t.Fatalf("steady round %d failed outright: %v", round, err)
		}
		wall := clock.Now().Sub(start)
		if wall > steadyBudget {
			t.Errorf("steady round %d took %v with one wedged neighbor, budget %v", round, wall, steadyBudget)
		}
	}
	st = observer.Client.Stats()
	if st.BreakerSkips == 0 {
		t.Errorf("steady rounds never skipped the open circuit: %+v", st)
	}
	if st.FanoutsDegraded == 0 {
		t.Errorf("degraded fan-outs were not reported: %+v", st)
	}
}

// idsMember formats the canonical chaos member name.
func idsMember(i int) ids.MemberID { return ids.MemberID(fmt.Sprintf("m%02d", i)) }
