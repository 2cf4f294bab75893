package dtn

import (
	"reflect"
	"testing"

	"repro/internal/faults"
)

// The fuzzers hold the DTN codec to the community codec's never-panic
// discipline. Seeds start from valid frames plus the exact damage the
// chaos fault plane inflicts (faults.Mangle: bit flips, truncation,
// insertion, zeroed spans), as delivered and re-sealed so the damage
// reaches the body.

func dtnMangledCorpus() [][]byte {
	var out [][]byte
	for _, frame := range dtnFrames() {
		for seed := uint64(0); seed < 8; seed++ {
			out = append(out, faults.Mangle(seed, frame), resealed(seed, frame))
		}
		if len(frame) > 12 {
			out = append(out, frame[:len(frame)-9])
			out = append(out, frame[:len(frame)/2])
			out = append(out, frame[:3])
		}
	}
	return out
}

func FuzzUnmarshalOffer(f *testing.F) {
	for _, m := range dtnMangledCorpus() {
		f.Add(m)
	}
	f.Add([]byte{})
	f.Add([]byte{frameMagic, frameVersion, kindOffer})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := UnmarshalOffer(data)
		if err != nil {
			return
		}
		out, err := UnmarshalOffer(MarshalOffer(in))
		if err != nil {
			t.Fatalf("re-decode of valid offer failed: %v", err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("offer round trip changed: %+v -> %+v", in, out)
		}
	})
}

func FuzzUnmarshalWant(f *testing.F) {
	for _, m := range dtnMangledCorpus() {
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := UnmarshalWant(data)
		if err != nil {
			return
		}
		out, err := UnmarshalWant(MarshalWant(in))
		if err != nil {
			t.Fatalf("re-decode of valid want failed: %v", err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("want round trip changed: %+v -> %+v", in, out)
		}
	})
}

func FuzzUnmarshalBundles(f *testing.F) {
	for _, m := range dtnMangledCorpus() {
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := UnmarshalBundles(data)
		if err != nil {
			return
		}
		reenc, err := UnmarshalBundles(MarshalBundles(in))
		if err != nil {
			t.Fatalf("re-decode of valid bundles failed: %v", err)
		}
		if len(reenc.Bundles) != len(in.Bundles) {
			t.Fatalf("bundles round trip changed length: %d -> %d", len(in.Bundles), len(reenc.Bundles))
		}
	})
}

func FuzzUnmarshalDTNAck(f *testing.F) {
	for _, m := range dtnMangledCorpus() {
		f.Add(m)
	}
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
