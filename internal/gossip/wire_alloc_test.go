package gossip

// Allocation pins for the gossip frame path and the bloom digests every
// rumor ack and anti-entropy run builds. Skipped under -race (the race
// runtime allocates on its own).

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/frame"
	"repro/internal/ids"
)

func requireNoRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
}

// TestRecordKeyMatchesBloomKey pins the bloom's key bytes to Key, and
// Key to its original member|%x form, at the epoch extremes: filters
// built from records and from Key strings are bit-identical.
func TestRecordKeyMatchesBloomKey(t *testing.T) {
	for _, epoch := range []uint64{0, 1, 1<<64 - 1} {
		rec := Record{Member: "m-042", Device: "dev-042", Epoch: epoch}
		if want := string(rec.Member) + "|" + fmt.Sprintf("%x", epoch); rec.Key() != want {
			t.Fatalf("epoch %d: Key() = %q, want %q", epoch, rec.Key(), want)
		}
		var buf [keyBuf]byte
		if got := rec.appendKey(buf[:0]); string(got) != rec.Key() {
			t.Fatalf("epoch %d: bloom key %q, Key() %q", epoch, got, rec.Key())
		}
		byKey, byRecord := NewBloom(4, 0.01, epoch^0x5a), NewBloom(4, 0.01, epoch^0x5a)
		byKey.Add(rec.Key())
		byRecord.addRecord(rec)
		if !bytes.Equal(byKey.bits, byRecord.bits) || !byKey.hasRecord(rec) || !byRecord.Has(rec.Key()) {
			t.Fatalf("epoch %d: record and key digests differ", epoch)
		}
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

// TestAllocsBuildBloom: digesting 150 records allocates the filter and
// nothing per record.
func TestAllocsBuildBloom(t *testing.T) {
	requireNoRace(t)
	w := newTestWorld(t, 1, Config{}, flatInterests("chess"), []uint64{1})
	n := w.nodes[0]
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := 0; i < 150; i++ {
		m := ids.MemberID(fmt.Sprintf("m-%04d", i))
		n.records[m] = Record{Member: m, Device: ids.DeviceIDf("dev-%04d", i), Epoch: uint64(i) << 40}
	}
	filter := testing.AllocsPerRun(100, func() { _ = NewBloom(len(n.records), n.cfg.BloomFP, 7) })
	if got := testing.AllocsPerRun(100, func() { _ = n.buildBloomLocked() }); got != filter {
		t.Fatalf("buildBloomLocked over 150 records: %.1f allocs, the filter alone %.1f", got, filter)
	}
}
