// Package frame is the sealed-frame discipline the gossip and DTN wire
// codecs share. Every frame is
//
//	magic(1) version(1) kind(1) body... checksum(8)
//
// where the checksum is FNV-64a over magic..body, little-endian, and the
// body is built from uvarints and length-prefixed strings. Each plane
// owns its magic byte, kinds, caps, error value and body layouts; this
// package owns the bytes around them: the append helpers, seal and
// verify, and a strict bounds-checked Reader.
//
// Decoding is strict: the checksum must match, every length must fit
// the caller's cap, and the body must be consumed exactly. A Reader
// fails sticky — after the first violation every read returns a zero
// value and Done reports false — so a decoder reads its whole layout
// and checks once, and never panics on damaged input.
//
// Sealing and verifying allocate nothing: they fold FNV-64a in a plain
// loop. Reads other than String and List.Strings return sub-slices of
// the frame; a caller that keeps one past the frame's lifetime copies
// it.
package frame

import (
	"encoding/binary"
	"math/bits"
)

const (
	headerLen = 3
	sumLen    = 8

	// Offset64 is the FNV-64a offset basis: Fold(Offset64, b) is the
	// FNV-64a hash of b.
	Offset64 uint64 = 14695981039346656037
	prime64  uint64 = 1099511628211
)

// Fold continues the FNV-64a hash h over b.
func Fold(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// --- encoding ---

// Begin starts a frame of the given kind in a buffer with room for a
// body of size bytes and the checksum, so a caller that sizes the body
// exactly appends without growing.
func Begin(magic, version, kind byte, size int) []byte {
	b := make([]byte, headerLen, headerLen+size+sumLen)
	b[0], b[1], b[2] = magic, version, kind
	return b
}

// Seal appends the checksum over the header and body in b.
func Seal(b []byte) []byte {
	return binary.LittleEndian.AppendUint64(b, Fold(Offset64, b))
}

// UvarintLen is the encoded size of v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// StringLen is the encoded size of a length-prefixed string.
func StringLen(s string) int { return UvarintLen(uint64(len(s))) + len(s) }

// ListLen is the encoded size of a count-prefixed string list.
func ListLen(ss []string) int {
	n := UvarintLen(uint64(len(ss)))
	for _, s := range ss {
		n += StringLen(s)
	}
	return n
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendList appends a count-prefixed list of length-prefixed strings,
// the encoding Reader.List reads back.
func AppendList(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// --- decoding ---

// Kind returns a frame's kind byte without verifying anything, or 0
// for input too short to carry one. It is for dispatch only: the
// decoder the kind selects verifies the frame once, kind byte included.
func Kind(data []byte) byte {
	if len(data) < headerLen {
		return 0
	}
	return data[2]
}

// Reader reads a verified frame body. Its zero value is a failed
// reader.
type Reader struct {
	b   []byte
	off int
	ok  bool
}

// Open verifies data as a sealed frame of the given magic, version and
// kind and returns a reader positioned at the body; on any mismatch the
// reader has failed.
func Open(data []byte, magic, version, kind byte) Reader {
	if len(data) < headerLen+sumLen || data[0] != magic || data[1] != version || data[2] != kind {
		return Reader{}
	}
	body := data[:len(data)-sumLen]
	if binary.LittleEndian.Uint64(data[len(body):]) != Fold(Offset64, body) {
		return Reader{}
	}
	return Reader{b: body, off: headerLen, ok: true}
}

// OK reports whether every read so far succeeded.
func (r *Reader) OK() bool { return r.ok }

// Fail marks the frame malformed; a decoder calls it when a value read
// well but breaks the layout's own rules.
func (r *Reader) Fail() { r.ok = false }

// Done reports whether the body was read exactly, with no failure and
// no trailing bytes.
func (r *Reader) Done() bool { return r.ok && r.off == len(r.b) }

// Uvarint reads one uvarint.
func (r *Reader) Uvarint() uint64 {
	if !r.ok {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.off += n
	return v
}

// Count reads a list length of at most max.
func (r *Reader) Count(max int) int {
	v := r.Uvarint()
	if v > uint64(max) {
		r.Fail()
		return 0
	}
	return int(v)
}

// Raw reads the next n bytes as a sub-slice of the frame.
func (r *Reader) Raw(n int) []byte {
	if !r.ok || n < 0 || n > len(r.b)-r.off {
		r.Fail()
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// Bytes reads a length-prefixed byte string of at most max bytes as a
// sub-slice of the frame.
func (r *Reader) Bytes(max int) []byte { return r.Raw(r.Count(max)) }

// String reads a length-prefixed string of at most max bytes.
func (r *Reader) String(max int) string { return string(r.Bytes(max)) }

// List reads a count-prefixed list of at most maxN strings of at most
// maxLen bytes each. The whole list is validated here; the result
// walks it in place.
func (r *Reader) List(maxN, maxLen int) List {
	n := r.Count(maxN)
	start := r.off
	for i := 0; i < n && r.ok; i++ {
		r.Bytes(maxLen)
	}
	if !r.ok {
		return List{}
	}
	return List{n: n, b: r.b[start:r.off]}
}

// List is a validated string list inside a received frame. It aliases
// the frame: walk it, or copy it out, before the frame's buffer is
// reused.
type List struct {
	n int
	b []byte
}

// Each calls fn with every entry in order. fn must not keep the slice.
func (l List) Each(fn func(s []byte)) {
	b := l.b
	for i := 0; i < l.n; i++ {
		n, k := binary.Uvarint(b)
		fn(b[k : k+int(n)])
		b = b[k+int(n):]
	}
}

// Strings copies the entries out; an empty list is nil.
func (l List) Strings() []string {
	if l.n == 0 {
		return nil
	}
	out := make([]string, 0, l.n)
	l.Each(func(s []byte) { out = append(out, string(s)) })
	return out
}
