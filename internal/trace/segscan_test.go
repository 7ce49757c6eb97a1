package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// Satellite coverage for the degenerate SegReader inputs the streaming
// service and the convert CLI must reject typed: empty file, zero
// segments, trailing garbage. Plus the ScanSegments framing contract.

func TestSegReaderEmptyFile(t *testing.T) {
	sr := NewSegReader(bytes.NewReader(nil))
	_, err := sr.ReadAll()
	var ee *EmptyTraceError
	if !errors.As(err, &ee) {
		t.Fatalf("empty file: error %T (%v), want *EmptyTraceError", err, err)
	}
	// Same through ReadSegment.
	sr = NewSegReader(bytes.NewReader(nil))
	if err := sr.ReadSegment(NewBatch(0)); !errors.As(err, &ee) {
		t.Fatalf("empty file ReadSegment: %T (%v), want *EmptyTraceError", err, err)
	}
}

func TestSegReaderZeroSegments(t *testing.T) {
	// A header-only stream is a valid empty trace: ReadSegment reports
	// clean io.EOF, ReadAll yields zero ops and no error.
	enc := encodeSPB2(t, nil, 64)
	if len(enc) != SPB2HeaderLen {
		t.Fatalf("empty trace encodes to %d bytes, want header only (%d)", len(enc), SPB2HeaderLen)
	}
	sr := NewSegReader(bytes.NewReader(enc))
	b := NewBatch(8)
	if err := sr.ReadSegment(b); err != io.EOF {
		t.Fatalf("ReadSegment on zero-segment stream: %v, want io.EOF", err)
	}
	sr = NewSegReader(bytes.NewReader(enc))
	ops, err := sr.ReadAll()
	if err != nil || len(ops) != 0 {
		t.Fatalf("ReadAll on zero-segment stream: %d ops, %v", len(ops), err)
	}
}

func TestSegReaderTrailingGarbage(t *testing.T) {
	ops := genOps(200)
	enc := encodeSPB2(t, ops, 64)
	for _, tail := range [][]byte{
		{0x01},                   // length varint promising bytes that never come
		{0xff, 0xff, 0xff, 0xff}, // unterminated varint
		{0x00},                   // empty segment frame with no seal
		bytes.Repeat([]byte{0xaa}, 32),
	} {
		mut := append(bytes.Clone(enc), tail...)
		sr := NewSegReader(bytes.NewReader(mut))
		got, err := sr.ReadAll()
		requireCorrupt(t, err, "trailing garbage")
		// Everything before the garbage still decodes exactly.
		opsEqual(t, got, ops, "prefix before trailing garbage")
	}
}

// ScanSegments must reproduce the exact stored frames: header plus the
// concatenated frames is byte-identical to the original stream, and a
// frame spliced onto a fresh header decodes alone.
func TestScanSegmentsRoundTrip(t *testing.T) {
	ops := genOps(500)
	enc := encodeSPB2(t, ops, 128)
	rebuilt := SPB2Header()
	var frames [][]byte
	n, err := ScanSegments(bytes.NewReader(enc), func(seg int, frame []byte) error {
		if seg != len(frames) {
			t.Fatalf("segment ordinal %d, want %d", seg, len(frames))
		}
		frames = append(frames, bytes.Clone(frame))
		rebuilt = append(rebuilt, frame...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frames) || n != (len(ops)+127)/128 {
		t.Fatalf("scanned %d segments, want %d", n, (len(ops)+127)/128)
	}
	if !bytes.Equal(rebuilt, enc) {
		t.Fatal("header + frames does not reassemble the original stream")
	}
	// Each frame is independently decodable on a fresh header.
	var all []Op
	for i, frame := range frames {
		sr := NewSegReader(bytes.NewReader(append(SPB2Header(), frame...)))
		got, err := sr.ReadAll()
		if err != nil {
			t.Fatalf("frame %d alone: %v", i, err)
		}
		all = append(all, got...)
	}
	opsEqual(t, all, ops, "per-frame decode")
}

func TestScanSegmentsRejects(t *testing.T) {
	ops := genOps(120)
	enc := encodeSPB2(t, ops, 64)

	if _, err := ScanSegments(bytes.NewReader(nil), nil); err == nil {
		t.Fatal("empty input scanned silently")
	} else {
		var ee *EmptyTraceError
		if !errors.As(err, &ee) {
			t.Fatalf("empty input: %T, want *EmptyTraceError", err)
		}
	}
	if n, err := ScanSegments(bytes.NewReader(SPB2Header()), nil); err != nil || n != 0 {
		t.Fatalf("header-only: n=%d err=%v, want clean 0", n, err)
	}

	bad := [][]byte{
		[]byte("XXXX\x01"),                   // wrong magic
		append(bytes.Clone(enc), 0x05, 0x01), // trailing garbage
		flipByte(enc, len(enc)/2),            // body damage
		flipByte(enc, SPB2HeaderLen),         // first frame's length varint
		enc[:len(enc)-3],                     // truncated final seal
	}
	for i, mut := range bad {
		if _, err := ScanSegments(bytes.NewReader(mut), nil); err == nil {
			t.Errorf("damaged stream %d scanned silently", i)
		} else {
			var ce *CorruptTraceError
			if !errors.As(err, &ce) {
				t.Errorf("damaged stream %d: %T (%v), want *CorruptTraceError", i, err, err)
			}
		}
	}

	// Callback errors propagate as-is.
	sentinel := errors.New("stop here")
	if _, err := ScanSegments(bytes.NewReader(enc), func(seg int, frame []byte) error {
		return sentinel
	}); !errors.Is(err, sentinel) {
		t.Fatalf("callback error: %v, want sentinel", err)
	}
}

func flipByte(b []byte, i int) []byte {
	c := bytes.Clone(b)
	c[i] ^= 0xff
	return c
}
