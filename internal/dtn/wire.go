package dtn

import (
	"encoding/binary"
	"errors"

	"repro/internal/frame"
	"repro/internal/ids"
)

// Wire format. Every DTN frame is an internal/frame sealed frame,
//
//	magic(1) version(1) kind(1) body... checksum(8)
//
// with the same discipline as the gossip codec: FNV-64a checksum,
// uvarints and length-prefixed strings, strict decoding — anything
// malformed is an error, never a panic. The fuzz suite holds the codec
// to that under faults.Mangle-style corruption (bit flips, truncation,
// insertion), both as delivered and re-sealed so the damage reaches the
// body.
//
// A contact is a four-frame handshake: the initiator OFFERs bundle
// summaries (plus a delivered-ids vaccine sample), the responder
// replies WANT with the subset it takes custody of (plus its own
// vaccine sample), the initiator ships the BUNDLES with allocated copy
// budgets, and the responder closes with ACK naming what it accepted —
// so both sides are fully settled when the initiator's Round returns.

const (
	frameMagic   = 0x64 // 'd'
	frameVersion = 1

	kindOffer   = 1
	kindWant    = 2
	kindBundles = 3
	kindAck     = 4

	maxWireString    = 4096
	maxWireSummaries = 4096
	maxWireIDs       = 4096
	maxWireBundles   = 1024
	maxWirePayload   = 1 << 16
	maxWireTTL       = 1 << 30
	maxWireCopies    = 1 << 20
	maxWireUtility   = 1 << 30
)

// Frame kind tags for stats and tests.
const (
	KindOffer   = kindOffer
	KindWant    = kindWant
	KindBundles = kindBundles
	KindAck     = kindAck
)

// ErrBadFrame reports any malformed DTN frame: short, wrong
// magic/version/kind, checksum mismatch, over-cap length, or trailing
// garbage.
var ErrBadFrame = errors.New("dtn: bad frame")

// Summary advertises one buffered bundle in an OFFER: its identity,
// destination, remaining TTL in rounds, and the offering custodian's
// social utility toward the destination (zero under the epidemic
// strategy). The responder compares Utility against its own to decide
// whether it is a strictly better relay.
type Summary struct {
	ID      string
	Dst     ids.DeviceID
	TTL     uint32
	Utility uint32
}

// Bundle is one addressed message under custody as it rides the wire:
// identity (source-scoped), source, destination, remaining TTL in
// rounds, the copy budget allocated to the receiving custodian, and the
// payload.
type Bundle struct {
	ID      string
	Src     ids.DeviceID
	Dst     ids.DeviceID
	TTL     uint32
	Copies  uint32
	Payload []byte
}

// FrameOffer opens a contact: the initiator's eligible bundle
// summaries plus a bounded sample of bundle ids it knows were
// delivered (the anti-packet vaccine that lets custodians purge dead
// copies).
type FrameOffer struct {
	From      ids.DeviceID
	Summaries []Summary
	Delivered []string
}

// FrameWant answers an OFFER: the ids the responder takes custody of,
// plus its own delivered-ids vaccine sample for the initiator.
type FrameWant struct {
	Want      []string
	Delivered []string
}

// FrameBundles ships the wanted bundles with their allocated copy
// budgets.
type FrameBundles struct {
	From    ids.DeviceID
	Bundles []Bundle
}

// FrameAck closes a contact: the ids the responder actually accepted
// custody of (stored, or consumed as destination). The initiator only
// splits or releases its local copies for acked ids, so a lost ack
// never loses custody.
type FrameAck struct {
	Accepted []string
}

// --- encoding ---

// encodeOffer builds an OFFER frame in a buffer of exact size around
// an already encoded vaccine (a frame.AppendList id list), so a node
// re-encodes its vaccine only when its delivered log grows.
func encodeOffer(from ids.DeviceID, sums []Summary, vaccine []byte) []byte {
	size := frame.StringLen(string(from)) + frame.UvarintLen(uint64(len(sums))) + len(vaccine)
	for _, s := range sums {
		size += frame.StringLen(s.ID) + frame.StringLen(string(s.Dst)) +
			frame.UvarintLen(uint64(s.TTL)) + frame.UvarintLen(uint64(s.Utility))
	}
	b := frame.Begin(frameMagic, frameVersion, kindOffer, size)
	b = frame.AppendString(b, string(from))
	b = binary.AppendUvarint(b, uint64(len(sums)))
	for _, s := range sums {
		b = frame.AppendString(b, s.ID)
		b = frame.AppendString(b, string(s.Dst))
		b = binary.AppendUvarint(b, uint64(s.TTL))
		b = binary.AppendUvarint(b, uint64(s.Utility))
	}
	return frame.Seal(append(b, vaccine...))
}

// encodeWant builds a WANT frame in a buffer of exact size around an
// already encoded vaccine.
func encodeWant(want []string, vaccine []byte) []byte {
	b := frame.Begin(frameMagic, frameVersion, kindWant, frame.ListLen(want)+len(vaccine))
	return frame.Seal(append(frame.AppendList(b, want), vaccine...))
}

// MarshalOffer encodes a contact-opening offer frame.
func MarshalOffer(f FrameOffer) []byte {
	return encodeOffer(f.From, f.Summaries, frame.AppendList(nil, f.Delivered))
}

// MarshalWant encodes an offer answer frame.
func MarshalWant(f FrameWant) []byte {
	return encodeWant(f.Want, frame.AppendList(nil, f.Delivered))
}

// MarshalBundles encodes a bundle transfer frame.
func MarshalBundles(f FrameBundles) []byte {
	b := frame.Begin(frameMagic, frameVersion, kindBundles, 0)
	b = frame.AppendString(b, string(f.From))
	b = binary.AppendUvarint(b, uint64(len(f.Bundles)))
	for _, bl := range f.Bundles {
		b = frame.AppendString(b, bl.ID)
		b = frame.AppendString(b, string(bl.Src))
		b = frame.AppendString(b, string(bl.Dst))
		b = binary.AppendUvarint(b, uint64(bl.TTL))
		b = binary.AppendUvarint(b, uint64(bl.Copies))
		b = frame.AppendBytes(b, bl.Payload)
	}
	return frame.Seal(b)
}

// MarshalAck encodes a contact-closing acceptance frame.
func MarshalAck(f FrameAck) []byte {
	b := frame.Begin(frameMagic, frameVersion, kindAck, frame.ListLen(f.Accepted))
	return frame.Seal(frame.AppendList(b, f.Accepted))
}

// --- decoding ---

// FrameKind peeks at a sealed frame's kind without validating the body.
// It still verifies the checksum, so a mangled kind byte is rejected
// rather than misrouted.
func FrameKind(data []byte) (byte, error) {
	k := frame.Kind(data)
	if k < kindOffer || k > kindAck {
		return 0, ErrBadFrame
	}
	if r := frame.Open(data, frameMagic, frameVersion, k); !r.OK() {
		return 0, ErrBadFrame
	}
	return k, nil
}

// decodeOffer decodes an offer frame, leaving its vaccine in place: the
// returned list walks the ids inside data, and Delivered is unset.
func decodeOffer(data []byte) (FrameOffer, frame.List, error) {
	r := frame.Open(data, frameMagic, frameVersion, kindOffer)
	from := r.String(maxWireString)
	n := r.Count(maxWireSummaries)
	var sums []Summary
	if n > 0 {
		// Cap the pre-allocation: a mangled count still has to be backed
		// by actual bytes before it grows the slice.
		sums = make([]Summary, 0, min(n, 64))
	}
	for i := 0; i < n && r.OK(); i++ {
		id := r.String(maxWireString)
		dst := ids.DeviceID(r.String(maxWireString))
		ttl, util := r.Uvarint(), r.Uvarint()
		if ttl == 0 || ttl > maxWireTTL || util > maxWireUtility {
			r.Fail()
		}
		sums = append(sums, Summary{ID: id, Dst: dst, TTL: uint32(ttl), Utility: uint32(util)})
	}
	vaccine := r.List(maxWireIDs, maxWireString)
	if !r.Done() {
		return FrameOffer{}, frame.List{}, ErrBadFrame
	}
	return FrameOffer{From: ids.DeviceID(from), Summaries: sums}, vaccine, nil
}

// UnmarshalOffer decodes a contact-opening offer frame.
func UnmarshalOffer(data []byte) (FrameOffer, error) {
	f, vaccine, err := decodeOffer(data)
	f.Delivered = vaccine.Strings()
	return f, err
}

// decodeWant decodes an offer answer frame, leaving its vaccine in
// place as decodeOffer does.
func decodeWant(data []byte) (FrameWant, frame.List, error) {
	r := frame.Open(data, frameMagic, frameVersion, kindWant)
	want := r.List(maxWireIDs, maxWireString)
	vaccine := r.List(maxWireIDs, maxWireString)
	if !r.Done() {
		return FrameWant{}, frame.List{}, ErrBadFrame
	}
	return FrameWant{Want: want.Strings()}, vaccine, nil
}

// UnmarshalWant decodes an offer answer frame.
func UnmarshalWant(data []byte) (FrameWant, error) {
	f, vaccine, err := decodeWant(data)
	f.Delivered = vaccine.Strings()
	return f, err
}

// UnmarshalBundles decodes a bundle transfer frame.
func UnmarshalBundles(data []byte) (FrameBundles, error) {
	r := frame.Open(data, frameMagic, frameVersion, kindBundles)
	from := r.String(maxWireString)
	n := r.Count(maxWireBundles)
	var bundles []Bundle
	if n > 0 {
		bundles = make([]Bundle, 0, min(n, 64))
	}
	for i := 0; i < n && r.OK(); i++ {
		id := r.String(maxWireString)
		src := ids.DeviceID(r.String(maxWireString))
		dst := ids.DeviceID(r.String(maxWireString))
		ttl, copies := r.Uvarint(), r.Uvarint()
		if ttl == 0 || ttl > maxWireTTL || copies == 0 || copies > maxWireCopies {
			r.Fail()
		}
		payload := append([]byte(nil), r.Bytes(maxWirePayload)...)
		bundles = append(bundles, Bundle{ID: id, Src: src, Dst: dst, TTL: uint32(ttl), Copies: uint32(copies), Payload: payload})
	}
	if !r.Done() {
		return FrameBundles{}, ErrBadFrame
	}
	return FrameBundles{From: ids.DeviceID(from), Bundles: bundles}, nil
}

// UnmarshalAck decodes a contact-closing acceptance frame.
func UnmarshalAck(data []byte) (FrameAck, error) {
	r := frame.Open(data, frameMagic, frameVersion, kindAck)
	acc := r.List(maxWireIDs, maxWireString)
	if !r.Done() {
		return FrameAck{}, ErrBadFrame
	}
	return FrameAck{Accepted: acc.Strings()}, nil
}
