package simtest

import (
	"reflect"
	"testing"
)

// This file extends the chaos battery to the store-carry-forward
// engine (Scenario.DTN): every member runs a dtn.Node beside its
// fan-out client, custody is taken before the faults hit, contact
// rounds execute under the seeded fault plans, and after healing every
// message whose endpoints share a connected component of the frozen
// radio graph — and whose TTL has not run out — must be delivered.
// Custody counters must balance on every node, and whole runs must
// replay byte-for-byte (witnessed by the folded trace digest).

// assertDTNInvariants is the DTN rows' check: the DTN-specific checks
// over the standard chaos invariants, on either engine.
func assertDTNInvariants(t *testing.T, sc Scenario, res *Result) {
	t.Helper()
	assertChaosInvariants(t, sc, res)
	if res.DTNSent == 0 {
		t.Errorf("DTN scenario originated no messages")
	}
	if !res.DTNConverged {
		t.Errorf("DTN did not deliver every reachable unexpired message (delivered %d/%d sent, %d required): %+v",
			res.DTNDelivered, res.DTNSent, res.DTNRequired, res.DTN)
	}
	if !res.DTN.CustodyBalanced() {
		t.Errorf("deployment-wide custody counters unbalanced: %+v", res.DTN)
	}
	if res.DTN.Rounds == 0 {
		t.Errorf("DTN scenario drove no rounds: %+v", res.DTN)
	}
}

// TestChaosDTNReplay runs a lossy partitioned DTN scenario twice from
// one seed on each engine: fault counters, custody statistics, the
// delivery record AND the folded per-node custody trace digest must
// replay byte-for-byte. The digest folds every custody event on every
// node — accept, deliver, expire, evict, transfer, purge, crash — so
// equality means the entire store-carry-forward history replayed
// exactly.
func TestChaosDTNReplay(t *testing.T) {
	for _, des := range []bool{false, true} {
		des := des
		name := "goroutine"
		if des {
			name = "des"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc := Scenario{
				Name:      "dtn-replay",
				Seed:      4242,
				Peers:     6,
				Loss:      0.2,
				Partition: true,
				DTN:       true,
				DES:       des,
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
			if r1.DTN != r2.DTN {
				t.Errorf("DTN stats diverged across replays:\n  run1: %+v\n  run2: %+v", r1.DTN, r2.DTN)
			}
			if r1.DTNDigest != r2.DTNDigest {
				t.Errorf("custody trace digests diverged across replays: %#x vs %#x", r1.DTNDigest, r2.DTNDigest)
			}
			if r1.DTNDelivered != r2.DTNDelivered {
				t.Errorf("delivery record diverged: %d vs %d", r1.DTNDelivered, r2.DTNDelivered)
			}
			if r1.Faults.MessagesLost == 0 {
				t.Errorf("replay scenario injected nothing: %+v", r1.Faults)
			}
			if !r1.DTNConverged || !r2.DTNConverged {
				t.Errorf("replay runs did not deliver: %v / %v", r1.DTNConverged, r2.DTNConverged)
			}
		})
	}
}

// TestChaosDTNCrashRestart is the dedicated crash–restart scenario:
// two peers crash for the whole fault phase (losing their volatile
// relay buffers on restart), the world partitions, and after the heal
// every surviving unexpired message must still reach its destination —
// custody at the source outlives relay loss.
func TestChaosDTNCrashRestart(t *testing.T) {
	res, err := Run(Scenario{
		Name:         "dtn-crash-restart",
		Seed:         7777,
		Peers:        6,
		Loss:         0.1,
		Partition:    true,
		CrashedPeers: 2,
		DTN:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if !res.DTNConverged {
		t.Errorf("post-heal delivery failed after crash-restart (delivered %d/%d): %+v",
			res.DTNDelivered, res.DTNSent, res.DTN)
	}
	if !res.DTN.CustodyBalanced() {
		t.Errorf("custody unbalanced after crash-restart: %+v", res.DTN)
	}
}

// TestChaosDTNStalledRelays wedges serving sessions on two peers for
// the whole fault phase: contacts through them hang and fail, but the
// protocol's custody-on-ack rule means no message is lost to a stalled
// exchange — everything still delivers after the heal.
func TestChaosDTNStalledRelays(t *testing.T) {
	res, err := Run(Scenario{
		Name:         "dtn-stalled-relays",
		Seed:         3131,
		Peers:        6,
		StalledPeers: 2,
		DTN:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if !res.DTNConverged {
		t.Errorf("post-heal delivery failed with stalled relays (delivered %d/%d): %+v",
			res.DTNDelivered, res.DTNSent, res.DTN)
	}
	if !res.DTN.CustodyBalanced() {
		t.Errorf("custody unbalanced with stalled relays: %+v", res.DTN)
	}
}

// TestZeroDTNScenarioIsClean pins the fault-free DTN baseline: no
// faults counted, no violations, every message delivered, no rejected
// frames and no exchange errors.
func TestZeroDTNScenarioIsClean(t *testing.T) {
	res, err := Run(Scenario{Name: "dtn-zero", Seed: 9, Peers: 4, DTN: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.MessagesLost != 0 || res.Faults.MessagesCorrupted != 0 {
		t.Errorf("fault-free run counted faults: %+v", res.Faults)
	}
	if !res.DTNConverged {
		t.Errorf("fault-free DTN run did not deliver everything: %+v", res.DTN)
	}
	if res.DTNDelivered != res.DTNSent {
		t.Errorf("fault-free run delivered %d of %d", res.DTNDelivered, res.DTNSent)
	}
	if res.DTN.FramesRejected != 0 {
		t.Errorf("fault-free run rejected DTN frames: %+v", res.DTN)
	}
	if res.DTN.ExchangeErrors != 0 {
		t.Errorf("fault-free run had exchange errors: %+v", res.DTN)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations in fault-free run: %v", res.Violations)
	}
}
