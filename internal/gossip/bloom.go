// Package gossip implements epidemic dissemination of profile/interest
// records: greedy push rumor mongering with per-rumor hot counters and
// bloom-filter "have" digests, periodic pairwise anti-entropy
// reconciliation, and social-graph-biased peer sampling (CyclonSN-style
// view shuffling weighted toward shared-interest peers). It is an
// alternative group-discovery engine next to the request/response
// fan-out in internal/community: both feed core.Manager, and the
// differential suite proves their views converge to the same oracle.
//
// The design follows the PeerSim newscasting exemplars (greedy rumor
// with bloom_false_positive, ae.* anti-entropy knobs, CyclonSN social
// peer sampling) referenced in SNIPPETS.md.
package gossip

import (
	"encoding/binary"
	"math"

	"repro/internal/frame"
)

// Bloom is a fixed-size bloom filter over record keys (member|epoch).
// It is the "have" digest exchanged on the wire: a responder's bloom
// lets the initiator skip pushing records the responder already holds,
// and an anti-entropy pair exchanges blooms to compute both delta
// directions. False positives only suppress a redundant push (the
// record still spreads through other pairs and through anti-entropy);
// false negatives never occur, so reconciliation never loses a record.
// The salt perturbs the hash pair, so a key's probe positions differ
// between filters built with different salts. Senders salt each digest
// from their seeded rng: a false positive that suppresses a record in
// one exchange is re-drawn in the next, so no record can be suppressed
// forever — the convergence argument needs only that FP draws are
// independent across exchanges, not that they never happen.
type Bloom struct {
	bits  []byte
	nbits uint32
	k     uint8
	count uint32
	salt  uint64
}

// Bloom sizing limits. Decode enforces them too, so a mangled frame
// cannot make a peer allocate unbounded filter memory.
const (
	bloomMaxBits = 1 << 24
	bloomMaxK    = 32
)

// NewBloom sizes a filter for n expected elements at false-positive
// rate p using the textbook optimum m = -n ln p / (ln 2)^2 and
// k = m/n ln 2. n and p are clamped to sane minima so tiny or empty
// sets still produce a valid filter. salt perturbs the hash positions
// (see the type comment).
func NewBloom(n int, p float64, salt uint64) *Bloom {
	if n < 1 {
		n = 1
	}
	if p <= 0 || p >= 1 {
		p = 0.01
	}
	ln2 := math.Ln2
	m := math.Ceil(-float64(n) * math.Log(p) / (ln2 * ln2))
	if m < 16 {
		m = 16
	}
	if m > bloomMaxBits {
		m = bloomMaxBits
	}
	// Round m up to a power of two: the double-hashing step h2 is
	// forced odd, and odd is coprime with 2^x, so every probe sequence
	// cycles through all m positions. With arbitrary m a shared factor
	// between h2 and m collapses the k probes onto a handful of bits
	// and the false-positive rate blows past the configured p.
	pow2 := float64(16)
	for pow2 < m {
		pow2 *= 2
	}
	m = pow2
	k := int(math.Round(m / float64(n) * ln2))
	if k < 1 {
		k = 1
	}
	if k > bloomMaxK {
		k = bloomMaxK
	}
	nbits := uint32(m)
	return &Bloom{
		bits:  make([]byte, (nbits+7)/8),
		nbits: nbits,
		k:     uint8(k),
		salt:  salt,
	}
}

// bloomHash derives the double-hashing pair (h1, h2) from one FNV-64a
// pass over the little-endian salt and the key: h1 is the low half, h2
// the high half forced odd so the probe sequence h1 + i*h2 walks
// distinct offsets.
func bloomHash(salt uint64, key []byte) (h1, h2 uint32) {
	var sb [8]byte
	binary.LittleEndian.PutUint64(sb[:], salt)
	s := frame.Fold(frame.Fold(frame.Offset64, sb[:]), key)
	return uint32(s), uint32(s>>32) | 1
}

// Add inserts a key.
func (b *Bloom) Add(key string) { b.add([]byte(key)) }

// Has reports whether the key may be in the set (definitely-absent on
// false; maybe-present on true).
func (b *Bloom) Has(key string) bool { return b.has([]byte(key)) }

// addRecord inserts rec.Key(), hashed from a stack buffer instead of a
// built string.
func (b *Bloom) addRecord(rec Record) {
	var buf [keyBuf]byte
	b.add(rec.appendKey(buf[:0]))
}

// hasRecord is Has(rec.Key()) without building the string.
func (b *Bloom) hasRecord(rec Record) bool {
	var buf [keyBuf]byte
	return b.has(rec.appendKey(buf[:0]))
}

func (b *Bloom) add(key []byte) {
	h1, h2 := bloomHash(b.salt, key)
	for i := uint32(0); i < uint32(b.k); i++ {
		idx := (h1 + i*h2) % b.nbits
		b.bits[idx>>3] |= 1 << (idx & 7)
	}
	b.count++
}

func (b *Bloom) has(key []byte) bool {
	if b == nil || b.nbits == 0 {
		return false
	}
	h1, h2 := bloomHash(b.salt, key)
	for i := uint32(0); i < uint32(b.k); i++ {
		idx := (h1 + i*h2) % b.nbits
		if b.bits[idx>>3]&(1<<(idx&7)) == 0 {
			return false
		}
	}
	return true
}

// Salt returns the filter's hash salt.
func (b *Bloom) Salt() uint64 {
	if b == nil {
		return 0
	}
	return b.salt
}

// Count returns the number of Add calls.
func (b *Bloom) Count() int {
	if b == nil {
		return 0
	}
	return int(b.count)
}

// Bits returns the filter size in bits.
func (b *Bloom) Bits() int {
	if b == nil {
		return 0
	}
	return int(b.nbits)
}

// K returns the number of probe positions per key.
func (b *Bloom) K() int {
	if b == nil {
		return 0
	}
	return int(b.k)
}
