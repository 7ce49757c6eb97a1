package trace

import (
	"bytes"
	"errors"
	"testing"
)

// decodeAll attempts a full decode of raw as SPB2, returning the first
// error (nil only for a clean, complete decode).
func decodeAll(raw []byte) error {
	_, err := NewSegReader(bytes.NewReader(raw)).ReadAll()
	return err
}

// requireCorrupt fails unless err is a *CorruptTraceError: damage must
// surface typed, never as a silent decode or an untyped error.
func requireCorrupt(t *testing.T, err error, label string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: decoded silently, want *CorruptTraceError", label)
	}
	var ce *CorruptTraceError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: error type %T (%v), want *CorruptTraceError", label, err, err)
	}
}

// TestSegBitFlipEveryByte flips every bit of every byte of an encoded
// trace in turn and requires each mutation to be rejected with a typed
// error and op-inexact never: no flipped stream may decode to the
// original op count with all ops valid AND no error.
func TestSegBitFlipEveryByte(t *testing.T) {
	ops := genOps(600)
	enc := encodeSPB2(t, ops, 128)
	for i := range enc {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(enc)
			mut[i] ^= 1 << bit
			err := decodeAll(mut)
			if err == nil {
				t.Fatalf("byte %d bit %d: flip decoded silently", i, bit)
			}
			var ce *CorruptTraceError
			if !errors.As(err, &ce) {
				t.Fatalf("byte %d bit %d: error type %T (%v), want *CorruptTraceError",
					i, bit, err, err)
			}
		}
	}
}

// TestSegTruncation cuts the stream at every prefix length. A cut that
// lands exactly on a segment boundary is indistinguishable from a
// shorter trace (segments are self-delimiting; there is no trailer) and
// must decode as an exact op prefix; every mid-segment cut must fail
// with a typed error — never a silent partial decode.
func TestSegTruncation(t *testing.T) {
	ops := genOps(300)
	enc := encodeSPB2(t, ops, 64)

	// Recover the segment boundary offsets by walking the framing.
	boundaries := map[int]bool{5: true}
	pos := 5
	for pos < len(enc) {
		plen, n := uvarintAt(enc, pos)
		pos += n + int(plen) + 8
		boundaries[pos] = true
	}

	for cut := 0; cut <= len(enc); cut++ {
		sr := NewSegReader(bytes.NewReader(enc[:cut]))
		got, err := sr.ReadAll()
		if boundaries[cut] {
			if err != nil {
				t.Fatalf("boundary cut %d: %v, want clean prefix decode", cut, err)
			}
			opsEqual(t, got, ops[:len(got)], "boundary prefix at "+itoa(cut))
			continue
		}
		if cut == 0 {
			// A zero-byte file is the typed empty-trace case, not
			// structural damage.
			var ee *EmptyTraceError
			if !errors.As(err, &ee) {
				t.Fatalf("cut 0: error type %T (%v), want *EmptyTraceError", err, err)
			}
			continue
		}
		requireCorrupt(t, err, "truncation at "+itoa(cut))
	}
}

func uvarintAt(p []byte, pos int) (uint64, int) {
	var v uint64
	for i := 0; ; i++ {
		b := p[pos+i]
		v |= uint64(b&0x7F) << (7 * i)
		if b < 0x80 {
			return v, i + 1
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestSegStaleVersion stamps every other version byte and requires a
// typed rejection naming the mismatch.
func TestSegStaleVersion(t *testing.T) {
	enc := encodeSPB2(t, genOps(50), 0)
	for _, v := range []byte{0, SPB2Version + 1, 0xFF} {
		mut := bytes.Clone(enc)
		mut[4] = v
		requireCorrupt(t, decodeAll(mut), "version stamp")
	}
}

// TestSegBadMagic requires both the SegReader and, already at open,
// the FileBatchSource to refuse a wrong magic with a typed error.
func TestSegBadMagic(t *testing.T) {
	enc := encodeSPB2(t, genOps(50), 0)
	mut := bytes.Clone(enc)
	copy(mut, "SPBX")
	requireCorrupt(t, decodeAll(mut), "SegReader magic")
	_, err := NewFileBatchSource(bytes.NewReader(mut))
	requireCorrupt(t, err, "NewFileBatchSource magic")
}

// TestSegOversizeCaps requires fabricated payload lengths and op counts
// beyond the sanity caps to be rejected before any allocation attempt.
func TestSegOversizeCaps(t *testing.T) {
	// Fabricated segment claiming a payload beyond maxSegPayload.
	huge := append([]byte{}, magic2[:]...)
	huge = append(huge, SPB2Version)
	huge = appendUvarintBytes(huge, maxSegPayload+1)
	requireCorrupt(t, decodeAll(huge), "payload length cap")
}

func appendUvarintBytes(p []byte, v uint64) []byte {
	for v >= 0x80 {
		p = append(p, byte(v)|0x80)
		v >>= 7
	}
	return append(p, byte(v))
}

// TestFileBatchSourceSurfacesCorruption checks the replay source stops
// at damage and exposes the typed error through Err, so a harness
// replay can never silently run a damaged trace to completion.
func TestFileBatchSourceSurfacesCorruption(t *testing.T) {
	ops := genOps(2000)
	enc := encodeSPB2(t, ops, 256)
	mut := bytes.Clone(enc)
	mut[len(mut)/2] ^= 0x40 // damage a mid-stream segment
	fs, err := NewFileBatchSource(bytes.NewReader(mut))
	if err != nil {
		t.Fatalf("NewFileBatchSource: %v", err)
	}
	b := NewBatch(DefaultBatchCap)
	n := 0
	for fs.NextBatch(b) {
		n += b.Len()
	}
	if n >= len(ops) {
		t.Fatalf("replayed all %d ops from a damaged trace", n)
	}
	requireCorrupt(t, fs.Err(), "FileBatchSource.Err")
}
