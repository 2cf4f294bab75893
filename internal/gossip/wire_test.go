package gossip

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

func sampleRecords() []Record {
	return []Record{
		{Member: "alice", Device: "dev-a", Epoch: 3, Interests: []string{"football", "chess"}},
		{Member: "bob", Device: "dev-b", Epoch: 12, Interests: []string{"music"}},
		{Member: "carol", Device: "dev-c", Epoch: 1},
	}
}

func sampleView() []ViewEntry {
	return []ViewEntry{
		{Device: "dev-a", Member: "alice", Age: 0},
		{Device: "dev-d", Member: "dora", Age: 7},
	}
}

func sampleBloom() *Bloom {
	b := NewBloom(16, 0.01, 0xabcdef)
	for _, r := range sampleRecords() {
		b.Add(r.Key())
	}
	return b
}

func TestWireRoundTrip(t *testing.T) {
	t.Parallel()
	t.Run("rumor", func(t *testing.T) {
		in := FrameRumor{From: "dev-a", Records: sampleRecords(), View: sampleView()}
		out, err := UnmarshalRumor(MarshalRumor(in))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip changed frame:\n in=%+v\nout=%+v", in, out)
		}
	})
	t.Run("ack", func(t *testing.T) {
		in := FrameAck{KnownMask: []byte{0b101}, Bloom: sampleBloom(), View: sampleView()}
		out, err := UnmarshalAck(MarshalAck(in))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip changed frame:\n in=%+v\nout=%+v", in, out)
		}
	})
	t.Run("digest", func(t *testing.T) {
		in := FrameDigest{From: "dev-b", Bloom: sampleBloom(), View: sampleView()}
		out, err := UnmarshalDigest(MarshalDigest(in))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip changed frame:\n in=%+v\nout=%+v", in, out)
		}
	})
	t.Run("delta", func(t *testing.T) {
		in := FrameDelta{From: "dev-c", Records: sampleRecords(), Bloom: sampleBloom()}
		out, err := UnmarshalDelta(MarshalDelta(in))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip changed frame:\n in=%+v\nout=%+v", in, out)
		}
	})
	t.Run("empty", func(t *testing.T) {
		out, err := UnmarshalAck(MarshalAck(FrameAck{}))
		if err != nil {
			t.Fatal(err)
		}
		if out.Bloom != nil || out.View != nil || len(out.KnownMask) != 0 {
			t.Fatalf("empty ack decoded non-empty: %+v", out)
		}
	})
}

// TestFrameKind pins the router: each frame reports its kind, a
// mangled kind byte fails the checksum, and cross-kind decodes error.
func TestFrameKind(t *testing.T) {
	t.Parallel()
	frames := map[byte][]byte{
		KindRumor:  MarshalRumor(FrameRumor{From: "d"}),
		KindAck:    MarshalAck(FrameAck{}),
		KindDigest: MarshalDigest(FrameDigest{From: "d"}),
		KindDelta:  MarshalDelta(FrameDelta{From: "d"}),
	}
	for want, frame := range frames {
		got, err := FrameKind(frame)
		if err != nil || got != want {
			t.Fatalf("FrameKind = %d, %v; want %d", got, err, want)
		}
	}
	if _, err := UnmarshalRumor(frames[KindDigest]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("cross-kind decode did not fail: %v", err)
	}
	flipped := append([]byte(nil), frames[KindRumor]...)
	flipped[2] = KindDelta
	if _, err := FrameKind(flipped); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("kind flip survived the checksum: %v", err)
	}
}

// TestCodecRejectsMangledFrames holds the decoders to the community
// codec's discipline: frames damaged by the chaos fault injector are
// rejected with ErrBadFrame — never a panic, never a silent
// misdecode into different content.
func TestCodecRejectsMangledFrames(t *testing.T) {
	t.Parallel()
	frames := [][]byte{
		MarshalRumor(FrameRumor{From: "dev-a", Records: sampleRecords(), View: sampleView()}),
		MarshalAck(FrameAck{KnownMask: []byte{0xff}, Bloom: sampleBloom(), View: sampleView()}),
		MarshalDigest(FrameDigest{From: "dev-b", Bloom: sampleBloom(), View: sampleView()}),
		MarshalDelta(FrameDelta{From: "dev-c", Records: sampleRecords(), Bloom: sampleBloom()}),
	}
	decoders := []func([]byte) error{
		func(b []byte) error { _, err := UnmarshalRumor(b); return err },
		func(b []byte) error { _, err := UnmarshalAck(b); return err },
		func(b []byte) error { _, err := UnmarshalDigest(b); return err },
		func(b []byte) error { _, err := UnmarshalDelta(b); return err },
	}
	for _, frame := range frames {
		for seed := uint64(0); seed < 200; seed++ {
			mangled := faults.Mangle(seed, frame)
			if string(mangled) == string(frame) {
				continue
			}
			for _, dec := range decoders {
				if err := dec(mangled); err != nil && !errors.Is(err, ErrBadFrame) {
					t.Fatalf("seed %d: unexpected error type %v", seed, err)
				}
			}
			// The FNV checksum catches essentially all single-site
			// damage; what matters for the protocol is that no decoder
			// panicked above and truncations always fail.
			if len(mangled) < len(frame) {
				for _, dec := range decoders {
					if dec(mangled) == nil && len(mangled) < 12 {
						t.Fatalf("seed %d: truncated frame decoded", seed)
					}
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

// nodeSnapshot is everything a rejected frame must leave alone.
type nodeSnapshot struct {
	stats   Stats
	records []Record
	view    []ViewEntry
	rng     uint64
	version uint64
}

func snapshotNode(n *Node) nodeSnapshot {
	n.mu.Lock()
	view, rng := append([]ViewEntry(nil), n.view...), n.rngState
	n.mu.Unlock()
	return nodeSnapshot{stats: n.Stats(), records: n.Records(), view: view, rng: rng, version: n.Version()}
}

// TestResealedCorruption drives body-level damage through every decoder
// and through a live node's serving steps. A decoder returns
// ErrBadFrame or a frame that round-trips; a step that rejects the
// frame leaves the records, the view, the rng and every counter but
// FramesRejected as they were.
func TestResealedCorruption(t *testing.T) {
	t.Parallel()
	w := newTestWorld(t, 1, Config{}, flatInterests("chess"), []uint64{1})
	n := w.nodes[0]
	n.Refresh()
	steps := []struct {
		name string
		step func([]byte) []byte
	}{
		{"openStep", func(b []byte) []byte { reply, _ := n.openStep(b); return reply }},
		{"closingStep", n.closingStep},
	}
	decoded, rejected := 0, 0
	for _, f := range fuzzFrames() {
		for seed := uint64(0); seed < 300; seed++ {
			m := resealed(seed, f)
			for _, err := range []error{
				roundTrip(m, UnmarshalRumor, MarshalRumor),
				roundTrip(m, UnmarshalAck, MarshalAck),
				roundTrip(m, UnmarshalDigest, MarshalDigest),
				roundTrip(m, UnmarshalDelta, MarshalDelta),
			} {
				if err == nil {
					decoded++
				} else if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			for _, s := range steps {
				before := snapshotNode(n)
				if s.step(m) != nil {
					continue
				}
				rejected++
				after := snapshotNode(n)
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
// testdata: every file must decode without panic, and files recorded
// as rejects must still be rejected (the corpus pins codec behavior
// across refactors).
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
		// Every decoder must survive every corpus entry.
		_, errR := UnmarshalRumor(data)
		_, errA := UnmarshalAck(data)
		_, errD := UnmarshalDigest(data)
		_, errL := UnmarshalDelta(data)
		for _, err := range []error{errR, errA, errD, errL} {
			if err != nil && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s: unexpected error %v", e.Name(), err)
			}
		}
	}
}
