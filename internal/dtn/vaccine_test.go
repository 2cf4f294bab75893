package dtn

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/frame"
	"repro/internal/ids"
)

// The vaccine rides every OFFER and WANT as a cached encoding and is
// applied by walking the received frame in place. These tests hold
// both to the string form they replaced.

const vaccinePeer = ids.DeviceID("dev-peer")

// vaccineTail is the reference vaccine: the last VaccineCap entries of
// the delivered log, as strings.
func (n *Node) vaccineTail() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	tail := n.deliveredOrder
	if len(tail) > n.cfg.VaccineCap {
		tail = tail[len(tail)-n.cfg.VaccineCap:]
	}
	return append([]string(nil), tail...)
}

// applyVaccineStrings is the reference vaccine application: the decoded
// string list, applied id by id. Callers hold n.mu.
func (n *Node) applyVaccineStrings(list []string, peer ids.DeviceID) {
	for _, id := range list {
		if id == "" || n.isDeliveredLocked(id) {
			continue
		}
		n.recordDeliveredLocked(id)
		if n.heldLocked(id) {
			n.removeLocked(id)
			n.stats.Purged++
			n.noteLocked("purge", id, peer, 0, 0)
		}
	}
}

// checkVaccineFrames builds the node's OFFER to vaccinePeer and its WANT
// answer to a probe offer, and requires both to equal the public
// marshalers' frames around the string-form vaccine.
func checkVaccineFrames(t *testing.T, n *Node, step string) {
	t.Helper()
	tail := n.vaccineTail()
	c, ok := n.nextContact(&contactPlan{targets: []ids.DeviceID{vaccinePeer}})
	if !ok {
		t.Fatalf("%s: no offer built", step)
	}
	n.mu.Lock()
	sums := n.buildOfferLocked(vaccinePeer)
	n.mu.Unlock()
	if want := MarshalOffer(FrameOffer{From: n.dev, Summaries: sums, Delivered: tail}); !bytes.Equal(c.offer, want) {
		t.Fatalf("%s: OFFER around the cached vaccine differs from MarshalOffer (%d ids)", step, len(tail))
	}
	probe := MarshalOffer(FrameOffer{From: vaccinePeer, Summaries: []Summary{{ID: "probe#" + step, Dst: "dev-far", TTL: 5}}})
	reply := n.offerStep(probe)
	got, err := UnmarshalWant(reply)
	if err != nil {
		t.Fatalf("%s: WANT does not decode: %v", step, err)
	}
	if want := MarshalWant(FrameWant{Want: got.Want, Delivered: tail}); !bytes.Equal(reply, want) {
		t.Fatalf("%s: WANT around the cached vaccine differs from MarshalWant (%d ids)", step, len(tail))
	}
}

// TestVaccineCacheMatchesMarshal: at every delivered-log size around
// the cap, and after each of the four ways an id enters the log, the
// frames built from the cached encoding are byte-equal to the string
// form's.
func TestVaccineCacheMatchesMarshal(t *testing.T) {
	t.Parallel()
	const vcap = 256
	for _, size := range []int{0, 1, vcap - 1, vcap, vcap + 5} {
		t.Run(fmt.Sprint("log=", size), func(t *testing.T) {
			w := newTestWorld(t, [][2]float64{{0, 0}}, worldOpts{cfg: Config{VaccineCap: vcap}})
			n := w.nodes[0]
			n.mu.Lock()
			for i := 0; i < size; i++ {
				n.recordDeliveredLocked(fmt.Sprintf("dev-old#%d", i))
			}
			n.mu.Unlock()
			// A bundle for the peer keeps every round's OFFER non-empty.
			if _, err := n.Send(vaccinePeer, []byte("anchor")); err != nil {
				t.Fatal(err)
			}
			checkVaccineFrames(t, n, "seeded")

			if _, err := n.Send(n.dev, []byte("to self")); err != nil {
				t.Fatal(err)
			}
			checkVaccineFrames(t, n, "self-send")

			consumed := MarshalBundles(FrameBundles{From: vaccinePeer, Bundles: []Bundle{{ID: "dev-peer#1", Src: vaccinePeer, Dst: n.dev, TTL: 5, Copies: 1}}})
			if n.bundlesStep(consumed) == nil {
				t.Fatal("bundles frame rejected")
			}
			checkVaccineFrames(t, n, "consumed")

			direct, err := n.Send(vaccinePeer, []byte("direct"))
			if err != nil {
				t.Fatal(err)
			}
			n.ackStep(&contact{peer: vaccinePeer, plan: []pendingXfer{{id: direct, direct: true}}}, MarshalAck(FrameAck{Accepted: []string{direct}}), nil)
			if !n.KnowsDelivered(direct) {
				t.Fatal("direct-delivery ack did not enter the log")
			}
			checkVaccineFrames(t, n, "direct-ack")

			if n.offerStep(MarshalOffer(FrameOffer{From: vaccinePeer, Delivered: []string{"dev-x#1", "dev-x#2"}})) == nil {
				t.Fatal("vaccine offer rejected")
			}
			checkVaccineFrames(t, n, "vaccine")
		})
	}
}

// TestVaccineInPlaceMatchesStrings: walking a vaccine inside the frame
// leaves the same delivered log, purges, custody, stats and trace
// digest as applying the decoded string list.
func TestVaccineInPlaceMatchesStrings(t *testing.T) {
	t.Parallel()
	setup := func() *Node {
		w := newTestWorld(t, [][2]float64{{0, 0}}, worldOpts{})
		n := w.nodes[0]
		for i := 0; i < 3; i++ {
			if _, err := n.Send(vaccinePeer, []byte("held")); err != nil {
				t.Fatal(err)
			}
		}
		relay := MarshalBundles(FrameBundles{From: vaccinePeer, Bundles: []Bundle{{ID: "dev-r#1", Src: "dev-r", Dst: "dev-far", TTL: 5, Copies: 2}}})
		if n.bundlesStep(relay) == nil {
			t.Fatal("relay bundle rejected")
		}
		if _, err := n.Send(n.dev, []byte("known")); err != nil {
			t.Fatal(err)
		}
		return n
	}
	vaccine := []string{"dev-000#2", "", "dev-new#1", "dev-000#4", "dev-r#1", "dev-new#1", "dev-000#2", "dev-new#2", "dev-000#1"}
	inPlace, reference := setup(), setup()
	_, list, err := decodeOffer(MarshalOffer(FrameOffer{From: vaccinePeer, Delivered: vaccine}))
	if err != nil {
		t.Fatal(err)
	}
	inPlace.mu.Lock()
	inPlace.applyVaccineLocked(list, vaccinePeer)
	inPlace.mu.Unlock()
	reference.mu.Lock()
	reference.applyVaccineStrings(vaccine, vaccinePeer)
	reference.mu.Unlock()

	if s := reference.Stats(); s.Purged != 3 {
		t.Fatalf("reference purged %d bundles, want 3 (two from the outbox, one relayed)", s.Purged)
	}
	if !reflect.DeepEqual(inPlace.deliveredOrder, reference.deliveredOrder) {
		t.Fatalf("delivered log %q, string path %q", inPlace.deliveredOrder, reference.deliveredOrder)
	}
	if a, b := inPlace.Stats(), reference.Stats(); a != b {
		t.Fatalf("stats %+v, string path %+v", a, b)
	}
	if a, b := inPlace.Holding(), reference.Holding(); !reflect.DeepEqual(a, b) {
		t.Fatalf("custody %q, string path %q", a, b)
	}
	if a, b := inPlace.TraceDigest(), reference.TraceDigest(); a != b {
		t.Fatalf("trace digest %x, string path %x", a, b)
	}
}

func requireNoRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
}

// TestAllocsSealVerify: sealing a frame into a sized buffer and
// verifying one allocate nothing. Decoding an empty ACK is verification
// alone.
func TestAllocsSealVerify(t *testing.T) {
	requireNoRace(t)
	ack := MarshalAck(FrameAck{})
	buf := make([]byte, 0, len(ack))
	if got := testing.AllocsPerRun(200, func() {
		buf = frame.Seal(append(buf[:0], ack[:len(ack)-8]...))
	}); got != 0 {
		t.Fatalf("sealing into a sized buffer: %.1f allocs, want 0", got)
	}
	if !bytes.Equal(buf, ack) {
		t.Fatal("re-sealed frame differs")
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := UnmarshalAck(ack); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("verifying an empty ACK: %.1f allocs, want 0", got)
	}
}

// TestAllocsServeKnownVaccine: serving an OFFER whose vaccine the node
// already knows costs the same allocations for one id as for 256 — the
// walk makes no string for a known id, and the WANT reuses the cached
// encoding of the node's own vaccine.
func TestAllocsServeKnownVaccine(t *testing.T) {
	requireNoRace(t)
	w := newTestWorld(t, [][2]float64{{0, 0}}, worldOpts{})
	n := w.nodes[0]
	known := make([]string, 256)
	for i := range known {
		known[i] = fmt.Sprintf("dev-old#%d", i)
	}
	if n.offerStep(MarshalOffer(FrameOffer{From: vaccinePeer, Delivered: known})) == nil {
		t.Fatal("offer rejected")
	}
	allocs := func(vaccine []string) float64 {
		offer := MarshalOffer(FrameOffer{From: vaccinePeer, Summaries: []Summary{{ID: "dev-peer#1", Dst: "dev-far", TTL: 5}}, Delivered: vaccine})
		return testing.AllocsPerRun(100, func() {
			if n.offerStep(offer) == nil {
				t.Fatal("offer rejected")
			}
		})
	}
	if one, full := allocs(known[:1]), allocs(known); one != full {
		t.Fatalf("serving a known vaccine: %.1f allocs for 1 id, %.1f for 256", one, full)
	}
}
