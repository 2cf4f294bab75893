package frame

import (
	"encoding/binary"
	"reflect"
	"testing"
)

const (
	testMagic   = 0x74
	testVersion = 1
	testKind    = 2
)

// sealed builds a test frame around body.
func sealed(body []byte) []byte {
	return Seal(append(Begin(testMagic, testVersion, testKind, len(body)), body...))
}

func TestSealOpenRoundTrip(t *testing.T) {
	var body []byte
	body = AppendString(body, "dev-a")
	body = binary.AppendUvarint(body, 300)
	body = AppendBytes(body, []byte{1, 2, 3})
	body = AppendList(body, []string{"x#1", "", "y#22"})
	f := sealed(body)
	if len(f) != cap(f) {
		t.Fatalf("a body of announced size grew the buffer: len %d cap %d", len(f), cap(f))
	}
	if Kind(f) != testKind || Kind(f[:2]) != 0 {
		t.Fatal("Kind misreads the kind byte")
	}
	r := Open(f, testMagic, testVersion, testKind)
	if s := r.String(16); s != "dev-a" {
		t.Fatalf("String = %q", s)
	}
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if p := r.Bytes(3); string(p) != "\x01\x02\x03" {
		t.Fatalf("Bytes = %v", p)
	}
	l := r.List(3, 4)
	if !r.Done() {
		t.Fatal("valid frame not consumed exactly")
	}
	if got := l.Strings(); !reflect.DeepEqual(got, []string{"x#1", "", "y#22"}) {
		t.Fatalf("List = %q", got)
	}
	var walked []string
	l.Each(func(s []byte) { walked = append(walked, string(s)) })
	if !reflect.DeepEqual(walked, l.Strings()) {
		t.Fatalf("Each walked %q, Strings %q", walked, l.Strings())
	}
	for _, c := range []struct {
		name                 string
		data                 []byte
		magic, version, kind byte
	}{
		{"short", f[:10], testMagic, testVersion, testKind},
		{"magic", f, testMagic + 1, testVersion, testKind},
		{"version", f, testMagic, testVersion + 1, testKind},
		{"kind", f, testMagic, testVersion, testKind + 1},
		{"checksum", append(append([]byte(nil), f[:len(f)-1]...), f[len(f)-1]^1), testMagic, testVersion, testKind},
	} {
		if r := Open(c.data, c.magic, c.version, c.kind); r.OK() || r.Done() {
			t.Errorf("%s: Open accepted a bad frame", c.name)
		}
	}
}

// TestReaderStrict holds the reader to the codecs' contract: over-cap
// lengths, truncated varints, reads past the body and trailing bytes
// all fail, and a failed reader stays failed and reads zero values.
func TestReaderStrict(t *testing.T) {
	cases := []struct {
		name string
		body []byte
		read func(r *Reader)
	}{
		{"count over cap", binary.AppendUvarint(nil, 5), func(r *Reader) { r.Count(4) }},
		{"string over cap", AppendString(nil, "abcde"), func(r *Reader) { r.String(4) }},
		{"string past end", []byte{9, 'a'}, func(r *Reader) { r.String(16) }},
		{"truncated varint", []byte{0x80}, func(r *Reader) { r.Uvarint() }},
		{"overlong varint", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, func(r *Reader) { r.Uvarint() }},
		{"raw past end", []byte{1, 2}, func(r *Reader) { r.Raw(3) }},
		{"list over cap", AppendList(nil, []string{"a", "b", "c"}), func(r *Reader) { r.List(2, 4) }},
		{"list entry over cap", AppendList(nil, []string{"a", "bcdef"}), func(r *Reader) { r.List(2, 4) }},
		{"list truncated", AppendList(nil, []string{"a", "b"})[:3], func(r *Reader) { r.List(2, 4) }},
	}
	for _, c := range cases {
		r := Open(sealed(c.body), testMagic, testVersion, testKind)
		c.read(&r)
		if r.Done() {
			t.Errorf("%s: reader accepted the body", c.name)
		}
		if r.Uvarint() != 0 || r.String(16) != "" || r.Bytes(16) != nil || r.List(4, 4).Strings() != nil {
			t.Errorf("%s: a failed reader read a value", c.name)
		}
	}
	r := Open(sealed(append(AppendString(nil, "a"), 0)), testMagic, testVersion, testKind)
	if r.String(4); r.Done() {
		t.Fatal("reader accepted trailing bytes")
	}
	// A layout rule the caller checks fails the reader the same way.
	r = Open(sealed([]byte{0}), testMagic, testVersion, testKind)
	if r.Uvarint() == 0 {
		r.Fail()
	}
	if r.OK() || r.Done() {
		t.Fatal("Fail did not fail the reader")
	}
}

func TestEncodedLengths(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<32 - 1, 1<<63 + 5, ^uint64(0)} {
		if got, want := UvarintLen(v), len(binary.AppendUvarint(nil, v)); got != want {
			t.Errorf("UvarintLen(%d) = %d, want %d", v, got, want)
		}
	}
	long := string(make([]byte, 200))
	for _, ss := range [][]string{nil, {""}, {"a", long}, make([]string, 130)} {
		if got, want := ListLen(ss), len(AppendList(nil, ss)); got != want {
			t.Errorf("ListLen = %d, want %d", got, want)
		}
	}
	if got, want := StringLen(long), len(AppendString(nil, long)); got != want {
		t.Errorf("StringLen = %d, want %d", got, want)
	}
}

// FuzzList feeds arbitrary bodies, sealed so they reach the reader,
// through List: it must never panic, and a list it accepts must read
// back the same entries from its re-encoding (varints need not be
// minimal on the wire, so the bytes may differ).
func FuzzList(f *testing.F) {
	f.Add(AppendList(nil, []string{"x#1", "", "y#22"}))
	f.Add([]byte{3, 1, 'a'})
	f.Add([]byte{0x80})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		r := Open(sealed(body), testMagic, testVersion, testKind)
		l := r.List(8, 8)
		if !r.Done() {
			return
		}
		again := Open(sealed(AppendList(nil, l.Strings())), testMagic, testVersion, testKind)
		if l2 := again.List(8, 8); !again.Done() || !reflect.DeepEqual(l2.Strings(), l.Strings()) {
			t.Fatalf("list %q read back as %q from its re-encoding", l.Strings(), l2.Strings())
		}
	})
}
