package gossip

import (
	"encoding/binary"
	"errors"
	"strconv"

	"repro/internal/frame"
	"repro/internal/ids"
)

// Wire format. Every gossip frame is an internal/frame sealed frame,
//
//	magic(1) version(1) kind(1) body... checksum(8)
//
// where the checksum is FNV-64a over magic..body, little-endian. The
// body is built from uvarints and length-prefixed strings. Decoding is
// strict: the checksum must match, every length must fit the declared
// caps, and the body must be consumed exactly — anything else is an
// error, never a panic. The fuzz suite holds the codec to that under
// faults.Mangle-style corruption (bit flips, truncation, insertion),
// both as delivered and re-sealed so the damage reaches the body.

const (
	frameMagic   = 0x67 // 'g'
	frameVersion = 1

	kindRumor  = 1
	kindAck    = 2
	kindDigest = 3
	kindDelta  = 4

	maxWireString    = 4096
	maxWireRecords   = 8192
	maxWireInterests = 256
	maxWireView      = 256
	maxWireMask      = 1024
)

// Frame kind tags for stats and tests.
const (
	KindRumor  = kindRumor
	KindAck    = kindAck
	KindDigest = kindDigest
	KindDelta  = kindDelta
)

var (
	// ErrBadFrame reports any malformed gossip frame: short, wrong
	// magic/version/kind, checksum mismatch, over-cap length, or
	// trailing garbage.
	ErrBadFrame = errors.New("gossip: bad frame")
)

// Record is one epoch-versioned member profile as it rides the wire: a
// member identity, the device carrying it, the store epoch at capture
// time (PR 4's wire-visible mutation counter — newer epoch supersedes),
// and the advertised interests.
type Record struct {
	Member    ids.MemberID
	Device    ids.DeviceID
	Epoch     uint64
	Interests []string
}

// Key is the record's identity in "have" digests: member|epoch, the
// epoch in lower-case hex. A re-advertised profile (new epoch) is a new
// rumor with a fresh key, so stale blooms never suppress fresh state.
func (r Record) Key() string {
	var buf [keyBuf]byte
	return string(r.appendKey(buf[:0]))
}

// keyBuf sizes the stack buffer keys are written into; a longer key
// spills to the heap.
const keyBuf = 64

// appendKey writes Key's bytes; the bloom hashes them from a stack
// buffer without building the string.
func (r Record) appendKey(b []byte) []byte {
	b = append(b, r.Member...)
	b = append(b, '|')
	return strconv.AppendUint(b, r.Epoch, 16)
}

// ViewEntry is one peer descriptor in the CyclonSN-style sampling view:
// the device to dial, the member it carries, and the entry's age in
// shuffle rounds (older entries are evicted first).
type ViewEntry struct {
	Device ids.DeviceID
	Member ids.MemberID
	Age    uint32
}

// FrameRumor is a rumor push: the sender's hot records the receiver's
// cached digest did not cover, plus a view sample for shuffling.
type FrameRumor struct {
	From    ids.DeviceID
	Records []Record
	View    []ViewEntry
}

// FrameAck answers a rumor push. KnownMask has bit i set when pushed
// record i was already known (the feedback that decays hot counters),
// Bloom is the responder's current "have" digest (cached by the
// initiator to skip future no-op pushes), View is the shuffle reply.
type FrameAck struct {
	KnownMask []byte
	Bloom     *Bloom
	View      []ViewEntry
}

// FrameDigest opens an anti-entropy exchange: the initiator's full
// "have" digest and a view sample.
type FrameDigest struct {
	From  ids.DeviceID
	Bloom *Bloom
	View  []ViewEntry
}

// FrameDelta carries reconciliation records. The responder's delta also
// carries its own bloom so the initiator can compute the reverse delta;
// the initiator's closing delta carries no bloom.
type FrameDelta struct {
	From    ids.DeviceID
	Records []Record
	Bloom   *Bloom
}

// --- encoding ---

func appendRecords(b []byte, rs []Record) []byte {
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for _, r := range rs {
		b = frame.AppendString(b, string(r.Member))
		b = frame.AppendString(b, string(r.Device))
		b = binary.AppendUvarint(b, r.Epoch)
		b = frame.AppendList(b, r.Interests)
	}
	return b
}

func appendView(b []byte, v []ViewEntry) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, e := range v {
		b = frame.AppendString(b, string(e.Device))
		b = frame.AppendString(b, string(e.Member))
		b = binary.AppendUvarint(b, uint64(e.Age))
	}
	return b
}

func appendBloom(b []byte, f *Bloom) []byte {
	if f == nil || f.nbits == 0 {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(f.nbits))
	b = binary.AppendUvarint(b, uint64(f.k))
	b = binary.AppendUvarint(b, uint64(f.count))
	b = binary.AppendUvarint(b, f.salt)
	return append(b, f.bits...)
}

func begin(kind byte) []byte { return frame.Begin(frameMagic, frameVersion, kind, 0) }

// MarshalRumor encodes a rumor push frame.
func MarshalRumor(f FrameRumor) []byte {
	b := frame.AppendString(begin(kindRumor), string(f.From))
	b = appendRecords(b, f.Records)
	return frame.Seal(appendView(b, f.View))
}

// MarshalAck encodes a rumor acknowledgement frame.
func MarshalAck(f FrameAck) []byte {
	b := frame.AppendBytes(begin(kindAck), f.KnownMask)
	b = appendBloom(b, f.Bloom)
	return frame.Seal(appendView(b, f.View))
}

// MarshalDigest encodes an anti-entropy digest frame.
func MarshalDigest(f FrameDigest) []byte {
	b := frame.AppendString(begin(kindDigest), string(f.From))
	b = appendBloom(b, f.Bloom)
	return frame.Seal(appendView(b, f.View))
}

// MarshalDelta encodes an anti-entropy delta frame.
func MarshalDelta(f FrameDelta) []byte {
	b := frame.AppendString(begin(kindDelta), string(f.From))
	b = appendRecords(b, f.Records)
	return frame.Seal(appendBloom(b, f.Bloom))
}

// --- decoding ---

func readRecords(r *frame.Reader) []Record {
	n := r.Count(maxWireRecords)
	if n == 0 {
		return nil
	}
	// Cap the pre-allocation: a mangled count still has to be backed by
	// actual bytes before it grows the slice.
	recs := make([]Record, 0, min(n, 64))
	for i := 0; i < n && r.OK(); i++ {
		m := ids.MemberID(r.String(maxWireString))
		d := ids.DeviceID(r.String(maxWireString))
		epoch := r.Uvarint()
		interests := r.List(maxWireInterests, maxWireString).Strings()
		recs = append(recs, Record{Member: m, Device: d, Epoch: epoch, Interests: interests})
	}
	return recs
}

func readView(r *frame.Reader) []ViewEntry {
	n := r.Count(maxWireView)
	if n == 0 {
		return nil
	}
	out := make([]ViewEntry, 0, min(n, 64))
	for i := 0; i < n && r.OK(); i++ {
		dev := ids.DeviceID(r.String(maxWireString))
		mem := ids.MemberID(r.String(maxWireString))
		age := r.Uvarint()
		if age > 1<<30 {
			r.Fail()
		}
		out = append(out, ViewEntry{Device: dev, Member: mem, Age: uint32(age)})
	}
	return out
}

func readBloom(r *frame.Reader) *Bloom {
	nbits := r.Uvarint()
	if nbits == 0 {
		return nil
	}
	k, count, salt := r.Uvarint(), r.Uvarint(), r.Uvarint()
	if nbits > bloomMaxBits || k < 1 || k > bloomMaxK || count > 1<<32-1 {
		r.Fail()
		return nil
	}
	bits := r.Raw(int((nbits + 7) / 8))
	if !r.OK() {
		return nil
	}
	return &Bloom{bits: append([]byte(nil), bits...), nbits: uint32(nbits), k: uint8(k), count: uint32(count), salt: salt}
}

// FrameKind peeks at a sealed frame's kind without validating the body.
// It still verifies the checksum, so a mangled kind byte is rejected
// rather than misrouted.
func FrameKind(data []byte) (byte, error) {
	k := frame.Kind(data)
	if k < kindRumor || k > kindDelta {
		return 0, ErrBadFrame
	}
	if r := frame.Open(data, frameMagic, frameVersion, k); !r.OK() {
		return 0, ErrBadFrame
	}
	return k, nil
}

// UnmarshalRumor decodes a rumor push frame.
func UnmarshalRumor(data []byte) (FrameRumor, error) {
	r := frame.Open(data, frameMagic, frameVersion, kindRumor)
	f := FrameRumor{From: ids.DeviceID(r.String(maxWireString))}
	f.Records = readRecords(&r)
	f.View = readView(&r)
	if !r.Done() {
		return FrameRumor{}, ErrBadFrame
	}
	return f, nil
}

// UnmarshalAck decodes a rumor acknowledgement frame.
func UnmarshalAck(data []byte) (FrameAck, error) {
	r := frame.Open(data, frameMagic, frameVersion, kindAck)
	f := FrameAck{KnownMask: append([]byte(nil), r.Bytes(maxWireMask)...)}
	f.Bloom = readBloom(&r)
	f.View = readView(&r)
	if !r.Done() {
		return FrameAck{}, ErrBadFrame
	}
	return f, nil
}

// UnmarshalDigest decodes an anti-entropy digest frame.
func UnmarshalDigest(data []byte) (FrameDigest, error) {
	r := frame.Open(data, frameMagic, frameVersion, kindDigest)
	f := FrameDigest{From: ids.DeviceID(r.String(maxWireString))}
	f.Bloom = readBloom(&r)
	f.View = readView(&r)
	if !r.Done() {
		return FrameDigest{}, ErrBadFrame
	}
	return f, nil
}

// UnmarshalDelta decodes an anti-entropy delta frame.
func UnmarshalDelta(data []byte) (FrameDelta, error) {
	r := frame.Open(data, frameMagic, frameVersion, kindDelta)
	f := FrameDelta{From: ids.DeviceID(r.String(maxWireString))}
	f.Records = readRecords(&r)
	f.Bloom = readBloom(&r)
	if !r.Done() {
		return FrameDelta{}, ErrBadFrame
	}
	return f, nil
}
