package gossip

import (
	"reflect"
	"testing"

	"repro/internal/faults"
)

// The fuzzers hold the gossip codec to the community codec's
// never-panic discipline. Seeds start from valid frames plus the exact
// damage the chaos fault plane inflicts (faults.Mangle: bit flips,
// truncation, insertion, zeroed spans), as delivered and re-sealed so
// the damage reaches the body, with extra seeds that mangle only the
// bloom payload region — the length-prefixed filter is the most
// structured part of the frame and the easiest to overrun.

func gossipMangledCorpus(frames ...[]byte) [][]byte {
	var out [][]byte
	for _, frame := range frames {
		for seed := uint64(0); seed < 8; seed++ {
			out = append(out, faults.Mangle(seed, frame), resealed(seed, frame))
		}
		// Truncations that cut into the bloom bits and the checksum.
		if len(frame) > 12 {
			out = append(out, frame[:len(frame)-9])
			out = append(out, frame[:len(frame)/2])
			out = append(out, frame[:3])
		}
	}
	return out
}

func fuzzFrames() [][]byte {
	return [][]byte{
		MarshalRumor(FrameRumor{From: "dev-a", Records: sampleRecords(), View: sampleView()}),
		MarshalAck(FrameAck{KnownMask: []byte{0x05}, Bloom: sampleBloom(), View: sampleView()}),
		MarshalDigest(FrameDigest{From: "dev-b", Bloom: sampleBloom(), View: sampleView()}),
		MarshalDelta(FrameDelta{From: "dev-c", Records: sampleRecords(), Bloom: sampleBloom()}),
		MarshalDigest(FrameDigest{From: "dev-e", Bloom: NewBloom(2000, 0.001, 42)}),
	}
}

func FuzzUnmarshalRumor(f *testing.F) {
	for _, m := range gossipMangledCorpus(fuzzFrames()...) {
		f.Add(m)
	}
	f.Add([]byte{})
	f.Add([]byte{frameMagic, frameVersion, kindRumor})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := UnmarshalRumor(data)
		if err != nil {
			return
		}
		out, err := UnmarshalRumor(MarshalRumor(in))
		if err != nil {
			t.Fatalf("re-decode of valid rumor failed: %v", err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("rumor round trip changed: %+v -> %+v", in, out)
		}
	})
}

func FuzzUnmarshalAck(f *testing.F) {
	for _, m := range gossipMangledCorpus(fuzzFrames()...) {
		f.Add(m)
	}
	f.Add([]byte{frameMagic, frameVersion, kindAck, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := UnmarshalAck(data)
		if err != nil {
			return
		}
		out, err := UnmarshalAck(MarshalAck(in))
		if err != nil {
			t.Fatalf("re-decode of valid ack failed: %v", err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("ack round trip changed: %+v -> %+v", in, out)
		}
	})
}

func FuzzUnmarshalDigest(f *testing.F) {
	for _, m := range gossipMangledCorpus(fuzzFrames()...) {
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := UnmarshalDigest(data)
		if err != nil {
			return
		}
		out, err := UnmarshalDigest(MarshalDigest(in))
		if err != nil {
			t.Fatalf("re-decode of valid digest failed: %v", err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("digest round trip changed: %+v -> %+v", in, out)
		}
		// A decoded bloom must be usable, not just structurally valid.
		if in.Bloom != nil {
			_ = in.Bloom.Has("probe")
		}
	})
}

func FuzzUnmarshalDelta(f *testing.F) {
	for _, m := range gossipMangledCorpus(fuzzFrames()...) {
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := UnmarshalDelta(data)
		if err != nil {
			return
		}
		out, err := UnmarshalDelta(MarshalDelta(in))
		if err != nil {
			t.Fatalf("re-decode of valid delta failed: %v", err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("delta round trip changed: %+v -> %+v", in, out)
		}
	})
}
