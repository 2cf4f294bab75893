package simtest

import (
	"reflect"
	"testing"
)

// This file extends the chaos battery to the epidemic engine
// (Scenario.Gossip): every member runs a gossip.Node beside its
// fan-out client, rumor/anti-entropy rounds execute under the same
// seeded fault plans, and after healing BOTH engines must reconverge
// to the same fault-free oracle. Replay must stay byte-for-byte
// deterministic with gossip traffic in the run.

// assertGossipInvariants is the gossip rows' check: the gossip-specific
// checks over the standard chaos invariants. The node never reads
// clocks or sleeps, so the identical code must satisfy the identical
// checks on the discrete-event engine.
func assertGossipInvariants(t *testing.T, sc Scenario, res *Result) {
	t.Helper()
	assertChaosInvariants(t, sc, res)
	if res.Gossip.Rounds == 0 {
		t.Errorf("gossip scenario drove no gossip rounds: %+v", res.Gossip)
	}
	if sc.GossipAntiEntropyOnly {
		if res.Gossip.PushesSent != 0 {
			t.Errorf("anti-entropy-only scenario pushed rumors: %+v", res.Gossip)
		}
		if res.Gossip.AERuns == 0 {
			t.Errorf("anti-entropy-only scenario ran no reconciliation: %+v", res.Gossip)
		}
	}
}

// TestChaosGossipReplay runs a loss-only gossip scenario twice from
// one seed: fault counters, the event trace, AND the aggregated gossip
// statistics (pushes, skips, deaths, anti-entropy pulls) must replay
// byte-for-byte. Gossip rounds run in sequential lockstep after the
// concurrent traffic phase, so the whole run stays a pure function of
// the seed.
func TestChaosGossipReplay(t *testing.T) {
	sc := Scenario{
		Name:   "gossip-replay",
		Seed:   999,
		Peers:  6,
		Loss:   0.2,
		Gossip: true,
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
	if !reflect.DeepEqual(r1.Events, r2.Events) {
		t.Errorf("event traces diverged across replays: %d vs %d events", len(r1.Events), len(r2.Events))
	}
	if r1.Gossip != r2.Gossip {
		t.Errorf("gossip stats diverged across replays:\n  run1: %+v\n  run2: %+v", r1.Gossip, r2.Gossip)
	}
	if r1.Faults.MessagesLost == 0 {
		t.Errorf("replay scenario injected nothing: %+v", r1.Faults)
	}
	if r1.Gossip.Rounds == 0 {
		t.Errorf("replay scenario ran no gossip rounds: %+v", r1.Gossip)
	}
	if !r1.Reconverged || !r2.Reconverged {
		t.Errorf("replay runs did not reconverge: %v / %v", r1.Reconverged, r2.Reconverged)
	}
}

// TestChaosGossipAntiEntropyOnly is the dedicated reconciliation
// scenario: rumor pushes fully suppressed under heavy loss, so
// periodic digest exchange is the only propagation path — and it must
// still reach the oracle after the heal.
func TestChaosGossipAntiEntropyOnly(t *testing.T) {
	res, err := Run(Scenario{
		Name:                  "gossip-ae-only",
		Seed:                  1717,
		Peers:                 6,
		Loss:                  0.25,
		Gossip:                true,
		GossipAntiEntropyOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if !res.Reconverged {
		t.Errorf("anti-entropy alone did not reconverge (rounds=%d, gossip=%+v)",
			res.RoundsToReconverge, res.Gossip)
	}
	if res.Gossip.PushesSent != 0 {
		t.Errorf("rumor pushes ran while suppressed: %+v", res.Gossip)
	}
	if res.Gossip.AERuns == 0 {
		t.Errorf("no anti-entropy exchanges ran: %+v", res.Gossip)
	}
	if res.Faults.MessagesLost == 0 {
		t.Errorf("loss knob injected nothing: %+v", res.Faults)
	}
}

// TestZeroGossipScenarioIsClean pins the fault-free gossip baseline:
// no faults counted, no violations, first-round reconvergence of both
// engines, and zero rejected gossip frames.
func TestZeroGossipScenarioIsClean(t *testing.T) {
	res, err := Run(Scenario{Name: "gossip-zero", Seed: 8, Peers: 4, Gossip: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.CallErrors != 0 {
		t.Errorf("fault-free run had %d call errors", res.CallErrors)
	}
	if res.Faults.MessagesLost != 0 || res.Faults.MessagesCorrupted != 0 {
		t.Errorf("fault-free run counted faults: %+v", res.Faults)
	}
	if !res.Reconverged {
		t.Errorf("fault-free gossip run did not reconverge: %+v", res.Gossip)
	}
	if res.Gossip.FramesRejected != 0 {
		t.Errorf("fault-free run rejected gossip frames: %+v", res.Gossip)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations in fault-free run: %v", res.Violations)
	}
}
