package dtn

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/frame"
)

func sampleSummaries() []Summary {
	return []Summary{
		{ID: "dev-a#1", Dst: "dev-z", TTL: 12, Utility: 3},
		{ID: "dev-b#7", Dst: "dev-y", TTL: 1, Utility: 0},
	}
}

func sampleBundles() []Bundle {
	return []Bundle{
		{ID: "dev-a#1", Src: "dev-a", Dst: "dev-z", TTL: 12, Copies: 4, Payload: []byte("carry me")},
		{ID: "dev-b#7", Src: "dev-b", Dst: "dev-y", TTL: 1, Copies: 1, Payload: nil},
	}
}

func TestWireRoundTrip(t *testing.T) {
	t.Parallel()
	offer := FrameOffer{From: "dev-a", Summaries: sampleSummaries(), Delivered: []string{"dev-c#2", "dev-d#9"}}
	gotOffer, err := UnmarshalOffer(MarshalOffer(offer))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(offer, gotOffer) {
		t.Fatalf("offer round trip changed: %+v -> %+v", offer, gotOffer)
	}

	want := FrameWant{Want: []string{"dev-a#1"}, Delivered: []string{"dev-c#2"}}
	gotWant, err := UnmarshalWant(MarshalWant(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, gotWant) {
		t.Fatalf("want round trip changed: %+v -> %+v", want, gotWant)
	}

	bundles := FrameBundles{From: "dev-a", Bundles: sampleBundles()}
	gotBundles, err := UnmarshalBundles(MarshalBundles(bundles))
	if err != nil {
		t.Fatal(err)
	}
	// A nil payload decodes as empty; normalize before comparing.
	if len(bundles.Bundles[1].Payload) == 0 && len(gotBundles.Bundles[1].Payload) == 0 {
		gotBundles.Bundles[1].Payload = bundles.Bundles[1].Payload
	}
	if !reflect.DeepEqual(bundles, gotBundles) {
		t.Fatalf("bundles round trip changed: %+v -> %+v", bundles, gotBundles)
	}

	ack := FrameAck{Accepted: []string{"dev-a#1", "dev-b#7"}}
	gotAck, err := UnmarshalAck(MarshalAck(ack))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ack, gotAck) {
		t.Fatalf("ack round trip changed: %+v -> %+v", ack, gotAck)
	}

	empty := FrameOffer{From: "dev-a"}
	gotEmpty, err := UnmarshalOffer(MarshalOffer(empty))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(empty, gotEmpty) {
		t.Fatalf("empty offer round trip changed: %+v -> %+v", empty, gotEmpty)
	}
}

func TestFrameKind(t *testing.T) {
	t.Parallel()
	cases := []struct {
		frame []byte
		kind  byte
	}{
		{MarshalOffer(FrameOffer{From: "a"}), kindOffer},
		{MarshalWant(FrameWant{}), kindWant},
		{MarshalBundles(FrameBundles{From: "a"}), kindBundles},
		{MarshalAck(FrameAck{}), kindAck},
	}
	for _, c := range cases {
		k, err := FrameKind(c.frame)
		if err != nil || k != c.kind {
			t.Fatalf("FrameKind = %d, %v, want %d", k, err, c.kind)
		}
	}
	if _, err := FrameKind(nil); !errors.Is(err, ErrBadFrame) {
		t.Fatal("FrameKind accepted nil")
	}
	// A flipped kind byte breaks the checksum and must be rejected, not
	// misrouted.
	f := MarshalOffer(FrameOffer{From: "a"})
	f[2] = kindAck
	if _, err := FrameKind(f); !errors.Is(err, ErrBadFrame) {
		t.Fatal("FrameKind accepted a frame with a mangled kind byte")
	}
}

func TestWireRejectsBadFrames(t *testing.T) {
	t.Parallel()
	valid := MarshalOffer(FrameOffer{From: "dev-a", Summaries: sampleSummaries()})
	bad := [][]byte{
		nil,
		{},
		valid[:10],
		valid[:len(valid)-1],
		append(append([]byte(nil), valid...), 0x00),
	}
	wrongMagic := append([]byte(nil), valid...)
	wrongMagic[0] = 0x67
	bad = append(bad, wrongMagic)
	wrongVersion := append([]byte(nil), valid...)
	wrongVersion[1] = 9
	bad = append(bad, wrongVersion)
	for i, b := range bad {
		if _, err := UnmarshalOffer(b); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("case %d: bad frame accepted (err=%v)", i, err)
		}
	}
	// A zero-TTL summary must not decode: expired bundles never ride
	// the wire, and the codec enforces it.
	zeroTTL := FrameOffer{From: "dev-a", Summaries: []Summary{{ID: "x#1", Dst: "y", TTL: 0}}}
	if _, err := UnmarshalOffer(MarshalOffer(zeroTTL)); !errors.Is(err, ErrBadFrame) {
		t.Fatal("zero-TTL summary decoded")
	}
	zeroCopies := FrameBundles{From: "a", Bundles: []Bundle{{ID: "x#1", Src: "a", Dst: "y", TTL: 3, Copies: 0}}}
	if _, err := UnmarshalBundles(MarshalBundles(zeroCopies)); !errors.Is(err, ErrBadFrame) {
		t.Fatal("zero-copies bundle decoded")
	}
}

func dtnFrames() [][]byte {
	return [][]byte{
		MarshalOffer(FrameOffer{From: "dev-a", Summaries: sampleSummaries(), Delivered: []string{"dev-c#2"}}),
		MarshalWant(FrameWant{Want: []string{"dev-a#1"}, Delivered: []string{"dev-c#2"}}),
		MarshalBundles(FrameBundles{From: "dev-a", Bundles: sampleBundles()}),
		MarshalAck(FrameAck{Accepted: []string{"dev-a#1"}}),
	}
}

func dtnDecoders() []func([]byte) error {
	return []func([]byte) error{
		func(b []byte) error { _, err := UnmarshalOffer(b); return err },
		func(b []byte) error { _, err := UnmarshalWant(b); return err },
		func(b []byte) error { _, err := UnmarshalBundles(b); return err },
		func(b []byte) error { _, err := UnmarshalAck(b); return err },
	}
}

// TestCodecRejectsMangledFrames holds every decoder to the never-panic
// discipline under the exact damage the chaos fault plane inflicts.
func TestCodecRejectsMangledFrames(t *testing.T) {
	t.Parallel()
	for _, frame := range dtnFrames() {
		for seed := uint64(0); seed < 200; seed++ {
			mangled := faults.Mangle(seed, frame)
			if string(mangled) == string(frame) {
				continue
			}
			for _, dec := range dtnDecoders() {
				if err := dec(mangled); err != nil && !errors.Is(err, ErrBadFrame) {
					t.Fatalf("seed %d: unexpected error type %v", seed, err)
				}
			}
		}
	}
}

// resealed damages a frame's body the way the chaos fault plane does
// and seals it again, so the damage passes the checksum and reaches the
// body parser: length caps, truncated varints, trailing bytes.
func resealed(seed uint64, f []byte) []byte {
	return frame.Seal(faults.Mangle(seed, f[:len(f)-8]))
}

// roundTrip decodes data with one decoder and, when it decodes, checks
// the frame survives re-encoding.
func roundTrip[F any](data []byte, unmarshal func([]byte) (F, error), marshal func(F) []byte) error {
	in, err := unmarshal(data)
	if err != nil {
		return err
	}
	out, err := unmarshal(marshal(in))
	if err != nil || !reflect.DeepEqual(in, out) {
		return fmt.Errorf("decoded %+v does not round-trip: %+v, %v", in, out, err)
	}
	return nil
}

// custodySnapshot is everything a rejected frame must leave alone.
type custodySnapshot struct {
	stats     Stats
	holding   []string
	delivered []string
	trace     uint64
}

func snapshotCustody(n *Node) custodySnapshot {
	n.mu.Lock()
	delivered := append([]string(nil), n.deliveredOrder...)
	n.mu.Unlock()
	return custodySnapshot{stats: n.Stats(), holding: n.Holding(), delivered: delivered, trace: n.TraceDigest()}
}

// TestResealedCorruption drives body-level damage through every decoder
// and through a live node's serving steps. A decoder returns
// ErrBadFrame or a frame that round-trips; a step that rejects the
// frame leaves custody, the delivered log, the trace and every counter
// but FramesRejected as they were.
func TestResealedCorruption(t *testing.T) {
	t.Parallel()
	w := newTestWorld(t, [][2]float64{{0, 0}}, worldOpts{})
	n := w.nodes[0]
	if _, err := n.Send("dev-a", []byte("held")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(n.dev, []byte("known")); err != nil {
		t.Fatal(err)
	}
	frames := append(dtnFrames(), MarshalOffer(FrameOffer{From: "dev-a", Summaries: sampleSummaries(), Delivered: []string{"dev-000#1", "dev-000#2", "dev-c#2", "dev-d#9"}}))
	steps := []struct {
		name string
		step func([]byte) []byte
	}{{"offerStep", n.offerStep}, {"bundlesStep", n.bundlesStep}}
	decoded, rejected := 0, 0
	for _, f := range frames {
		for seed := uint64(0); seed < 300; seed++ {
			m := resealed(seed, f)
			for _, err := range []error{
				roundTrip(m, UnmarshalOffer, MarshalOffer),
				roundTrip(m, UnmarshalWant, MarshalWant),
				roundTrip(m, UnmarshalBundles, MarshalBundles),
				roundTrip(m, UnmarshalAck, MarshalAck),
			} {
				if err == nil {
					decoded++
				} else if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			for _, s := range steps {
				before := snapshotCustody(n)
				if s.step(m) != nil {
					continue
				}
				rejected++
				after := snapshotCustody(n)
				before.stats.FramesRejected++
				if !reflect.DeepEqual(before, after) {
					t.Fatalf("seed %d: %s rejected a frame but changed state:\n before %+v\n after  %+v", seed, s.name, before, after)
				}
			}
		}
	}
	// Both outcomes must occur, or the damage never reached the body.
	if decoded == 0 || rejected == 0 {
		t.Fatalf("re-sealed damage decoded %d times and was rejected %d times; want both", decoded, rejected)
	}
}

// TestCorruptionCorpus replays the committed corruption corpus under
// testdata: every file must decode without panic, and anything that
// decodes must be a structurally valid frame (the corpus pins codec
// behavior across refactors).
func TestCorruptionCorpus(t *testing.T) {
	t.Parallel()
	dir := filepath.Join("testdata", "corpus")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("corruption corpus missing: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("corruption corpus empty")
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, dec := range dtnDecoders() {
			if err := dec(data); err != nil && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s: unexpected error %v", e.Name(), err)
			}
		}
	}
}
