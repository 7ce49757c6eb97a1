package seal

import (
	"bytes"
	"errors"
	"hash/fnv"
	"math"
	"testing"
)

const (
	testMagic = "TEST"
	testKind  = "test-record/v1"
)

func TestAddMatchesStdlibFNV64a(t *testing.T) {
	for _, p := range [][]byte{nil, {0}, []byte("a"), []byte("foobar"), bytes.Repeat([]byte{0xa5}, 1000)} {
		h := fnv.New64a()
		h.Write(p)
		if got, want := Add(Offset, p), h.Sum64(); got != want {
			t.Fatalf("Add(Offset, %q) = %016x, want %016x", p, got, want)
		}
		// Resuming a stored state is the same as one fold over the whole.
		if len(p) > 1 {
			if got := Add(Add(Offset, p[:1]), p[1:]); got != h.Sum64() {
				t.Fatalf("resumed fold of %q = %016x, want %016x", p, got, h.Sum64())
			}
		}
	}
	var le [8]byte
	v := uint64(0x0102030405060708)
	for i := range le {
		le[i] = byte(v >> (8 * i))
	}
	if got, want := AddU64(Offset, v), Add(Offset, le[:]); got != want {
		t.Fatalf("AddU64 = %016x, want the little-endian byte fold %016x", got, want)
	}
}

func samplePayload() []byte {
	var w Writer
	w.Str("gcc")
	w.I64(-3)
	w.U64(math.MaxUint64)
	w.F64(2.5)
	w.Str("")
	return w.Bytes()
}

func TestSealOpenRoundTrip(t *testing.T) {
	rec := Seal(testMagic, testKind, samplePayload())
	r, err := Open("rec", rec, testMagic, testKind)
	if err != nil {
		t.Fatal(err)
	}
	if s, i, u, f, e := r.Str(), r.I64(), r.U64(), r.F64(), r.Str(); s != "gcc" || i != -3 ||
		u != math.MaxUint64 || f != 2.5 || e != "" {
		t.Fatalf("decoded %q %d %d %v %q", s, i, u, f, e)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func wantCorrupt(t *testing.T, label string, err error) {
	t.Helper()
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: want *CorruptError, got %v", label, err)
	}
}

// Every single-byte flip of a sealed record is rejected by Open: the
// seal covers the magic, the kind stamp and the payload.
func TestOpenRejectsEveryFlippedByte(t *testing.T) {
	rec := Seal(testMagic, testKind, samplePayload())
	for i := range rec {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), rec...)
			mut[i] ^= mask
			_, err := Open("rec", mut, testMagic, testKind)
			wantCorrupt(t, "flip", err)
		}
	}
}

func TestOpenRejectsEveryTruncation(t *testing.T) {
	rec := Seal(testMagic, testKind, samplePayload())
	for n := 0; n < len(rec); n++ {
		_, err := Open("rec", rec[:n], testMagic, testKind)
		wantCorrupt(t, "truncate", err)
	}
}

// A correctly sealed record under another magic or kind stamp is
// refused on the stamp alone.
func TestOpenRejectsForeignStamps(t *testing.T) {
	_, err := Open("rec", Seal("XXXX", testKind, samplePayload()), testMagic, testKind)
	wantCorrupt(t, "magic", err)
	_, err = Open("rec", Seal(testMagic, "test-record/v0", samplePayload()), testMagic, testKind)
	wantCorrupt(t, "kind", err)
}

// A sealed payload that is shorter or longer than the decoder expects
// fails Done rather than zero-filling or ignoring fields.
func TestReaderDoneRejectsShortAndTrailingPayloads(t *testing.T) {
	full := samplePayload()
	for _, p := range [][]byte{full[:len(full)-8], append(append([]byte(nil), full...), 0)} {
		r, err := Open("rec", Seal(testMagic, testKind, p), testMagic, testKind)
		if err != nil {
			t.Fatal(err)
		}
		r.Str()
		r.I64()
		r.U64()
		r.F64()
		r.Str()
		wantCorrupt(t, "payload length", r.Done())
	}
	// A string length past the end sticks as an error, too.
	var w Writer
	w.U64(1 << 40)
	r, err := Open("rec", Seal(testMagic, testKind, w.Bytes()), testMagic, testKind)
	if err != nil {
		t.Fatal(err)
	}
	if s := r.Str(); s != "" {
		t.Fatalf("over-long string decoded as %q", s)
	}
	wantCorrupt(t, "string length", r.Done())
}

// FuzzOpen: arbitrary bytes never panic Open, and whatever Open accepts
// re-seals to exactly the bytes it was given.
func FuzzOpen(f *testing.F) {
	rec := Seal(testMagic, testKind, samplePayload())
	f.Add(rec)
	f.Add(rec[:len(rec)-1])
	f.Add(Seal(testMagic, testKind, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := Open("fuzz", raw, testMagic, testKind)
		if err != nil {
			wantCorrupt(t, "open", err)
			return
		}
		if got := Seal(testMagic, testKind, r.buf); !bytes.Equal(got, raw) {
			t.Fatalf("accepted record does not re-seal to itself:\n got %x\nwant %x", got, raw)
		}
	})
}
