package dtn

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/testutil"
)

// engineSnapshot is everything a DTN run leaves observable.
type engineSnapshot struct {
	Stats    []Stats
	Digests  []uint64
	Received [][]Message
	Holding  [][]string
}

// driveEngineWorld runs the parity workload on one engine: two clusters
// of four joined by a two-device bridge, epidemic spray with a small
// buffer so eviction and splits happen, a crash-restart halfway, and
// traffic in both directions. It returns the final observables and how
// many goroutines the nodes and rounds added.
func driveEngineWorld(t *testing.T, o worldOpts) (engineSnapshot, int) {
	t.Helper()
	pos := [][2]float64{
		{0, 0}, {3, 0}, {0, 3}, {3, 3}, // west cluster
		{9, 1}, {17, 1}, // bridge
		{23, 0}, {26, 0}, {23, 3}, {26, 3}, // east cluster
	}
	o.cfg = Config{CopyBudget: 4, BufferCap: 3, TTLRounds: 10, Fanout: 3}
	o.seed = 23
	w := newTestWorld(t, pos, o)
	ctx := context.Background()
	for r := 0; r < 12; r++ {
		if r < 4 {
			src, dst := r, 9-r
			if _, err := w.nodes[src].Send(w.devs[dst], []byte(fmt.Sprintf("west-%d", r))); err != nil {
				t.Fatal(err)
			}
			if _, err := w.nodes[dst].Send(w.devs[src], []byte(fmt.Sprintf("east-%d", r))); err != nil {
				t.Fatal(err)
			}
		}
		if r == 5 {
			w.nodes[4].SetDown(true)
		}
		if r == 7 {
			w.nodes[4].DropVolatile()
			w.nodes[4].SetDown(false)
		}
		w.sweep(ctx)
	}
	added := runtime.NumGoroutine() - w.goroutines
	if o.events {
		// Run's own pool workers signal their WaitGroup just before
		// they return, so give them the leak checker's settle window.
		added = testutil.GoroutinesAbove(w.goroutines)
	}
	var snap engineSnapshot
	for _, n := range w.nodes {
		snap.Stats = append(snap.Stats, n.Stats())
		snap.Digests = append(snap.Digests, n.TraceDigest())
		snap.Received = append(snap.Received, n.Received())
		snap.Holding = append(snap.Holding, n.Holding())
	}
	return snap, added
}

// TestEngineParityThreeWays runs one seeded world on the goroutine
// engine, on the discrete-event engine with its runner started, on the
// discrete-event engine with Round's Await alone, and with RoundEvent
// rounds drained by Run. The blocking contacts and the event cascades
// build and apply the same frames, so all of them must agree on every
// counter, delivery, held bundle and custody trace digest. On the event
// engine the nodes serve through AcceptEvent and rounds are cascades,
// so no goroutine is added.
func TestEngineParityThreeWays(t *testing.T) {
	oracle, _ := driveEngineWorld(t, worldOpts{})
	var total Stats
	for _, s := range oracle.Stats {
		total.Add(s)
	}
	if total.Delivered == 0 || total.Transferred == 0 || total.CopiesReceived == 0 {
		t.Fatalf("parity workload exercised too little: %+v", total)
	}
	for _, o := range []worldOpts{{useDES: true}, {useDES: true, noRunner: true}, {useDES: true, noRunner: true, events: true}} {
		name := "des-started"
		if o.events {
			name = "des-event"
		} else if o.noRunner {
			name = "des-await"
		}
		got, added := driveEngineWorld(t, o)
		for i := range oracle.Stats {
			if got.Stats[i] != oracle.Stats[i] {
				t.Errorf("%s: node %d stats %+v, goroutine engine %+v", name, i, got.Stats[i], oracle.Stats[i])
			}
		}
		if !reflect.DeepEqual(got.Digests, oracle.Digests) {
			t.Errorf("%s: trace digests %x, goroutine engine %x", name, got.Digests, oracle.Digests)
		}
		if !reflect.DeepEqual(got.Received, oracle.Received) || !reflect.DeepEqual(got.Holding, oracle.Holding) {
			t.Errorf("%s: deliveries or held custody differ from the goroutine engine", name)
		}
		if name != "des-await" && added > 0 {
			t.Errorf("%s: nodes and rounds added %d goroutines, want none", name, added)
		}
	}
}

// TestContactEventCostPinned pins how many scheduler events one contact
// costs on the event engine, so close polling (a serving end closing
// while its ack is in flight polls every flush retry) cannot creep
// back: the seed, the dial completion, the OFFER, WANT, BUNDLES and ACK
// deliveries, and the serving end's close callback, which the
// initiator's close schedules at the same instant. With no background
// runner the count is exact.
func TestContactEventCostPinned(t *testing.T) {
	w := newTestWorld(t, [][2]float64{{0, 0}, {3, 0}}, worldOpts{useDES: true, noRunner: true})
	if _, err := w.nodes[0].Send(w.devs[1], []byte("pin")); err != nil {
		t.Fatal(err)
	}
	before := w.sched.EventsExecuted()
	w.nodes[0].Round(context.Background())
	events := w.sched.EventsExecuted() - before
	if s := w.nodes[0].Stats(); s.OffersSent != 1 || s.Transferred != 1 || s.ExchangeErrors != 0 {
		t.Fatalf("round did not run exactly one clean contact: %+v", s)
	}
	const maxEvents = 7
	if events > maxEvents {
		t.Fatalf("one contact ran %d scheduler events, want at most %d", events, maxEvents)
	}
}
