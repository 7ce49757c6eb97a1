package trace

import (
	"bytes"
	"io"
	"testing"
)

// genOps builds a deterministic mixed op stream exercising every kind,
// size class, both address bases, zero and nonzero gaps, and data
// payloads of all widths.
func genOps(n int) []Op {
	ops := make([]Op, 0, n)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	seq := uint64(0)
	for len(ops) < n {
		switch next() % 8 {
		case 0:
			ops = append(ops, Op{Kind: Fence})
		case 1, 2:
			sz := uint8(1 << (next() % 4))
			addr := 0x8000_0000 + (next()%(1<<20))&^uint64(sz-1)
			ops = append(ops, Op{Kind: Load, Addr: addr, Size: sz, Gap: uint32(next() % 50)})
		default:
			sz := uint8(8)
			addr := 0x1000_0000 + (next()%(1<<20))&^uint64(sz-1)
			var data uint64
			if next()%2 == 0 {
				seq++
				data = seq // delta-friendly payload
			} else {
				data = next() // incompressible payload
			}
			var gap uint32
			if next()%3 == 0 {
				gap = uint32(next() % 30)
			}
			ops = append(ops, Op{Kind: Store, Addr: addr, Size: sz, Data: data, Gap: gap})
		}
	}
	return ops
}

// encodeSPB2 writes ops at the given segment granularity.
func encodeSPB2(t *testing.T, ops []Op, segOps int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewSegWriter(&buf, segOps)
	for _, op := range ops {
		if err := sw.Write(op); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if sw.Count() != uint64(len(ops)) {
		t.Fatalf("Count = %d, want %d", sw.Count(), len(ops))
	}
	return buf.Bytes()
}

func opsEqual(t *testing.T, got, want []Op, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ops, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: op %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestSegRoundTrip checks encode→decode is op-exact at several segment
// granularities, including ones that leave a partial final segment and
// a degenerate 1-op-per-segment stream.
func TestSegRoundTrip(t *testing.T) {
	ops := genOps(3000)
	for _, segOps := range []int{1, 7, 256, 1000, DefaultSegOps, 100000} {
		enc := encodeSPB2(t, ops, segOps)
		got, err := NewSegReader(bytes.NewReader(enc)).ReadAll()
		if err != nil {
			t.Fatalf("segOps=%d: ReadAll: %v", segOps, err)
		}
		opsEqual(t, got, ops, "segOps round trip")
	}
}

// TestSegRoundTripBatched checks WriteBatch produces a byte-identical
// stream to scalar Write regardless of producer chunking, and that
// ReadSegment yields the same ops.
func TestSegRoundTripBatched(t *testing.T) {
	ops := genOps(2500)
	scalar := encodeSPB2(t, ops, 512)

	var buf bytes.Buffer
	sw := NewSegWriter(&buf, 512)
	src := NewSliceBatchSource(ops)
	b := NewBatch(257) // odd producer chunking must not matter
	for i := 0; src.NextBatch(b); i++ {
		// NextBatch caps at its own chunk size; re-chunk through a copy
		// with odd lengths to stress boundary handling.
		if err := sw.WriteBatch(b); err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), scalar) {
		t.Fatal("WriteBatch stream differs from scalar Write stream")
	}

	sr := NewSegReader(bytes.NewReader(buf.Bytes()))
	var got []Op
	seg := NewBatch(512)
	for {
		err := sr.ReadSegment(seg)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadSegment: %v", err)
		}
		for i := 0; i < seg.Len(); i++ {
			got = append(got, seg.Op(i))
		}
	}
	opsEqual(t, got, ops, "ReadSegment round trip")
}

// TestSegWriterRejectsInvalid checks invalid ops are refused at write
// time, before they can poison a segment.
func TestSegWriterRejectsInvalid(t *testing.T) {
	sw := NewSegWriter(io.Discard, 0)
	if err := sw.Write(Op{Kind: Load, Addr: 0x1001, Size: 8}); err == nil {
		t.Fatal("misaligned load accepted")
	}
	if err := sw.Write(Op{Kind: Kind(9)}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestSegEmptyTrace checks a flushed empty writer still emits a valid
// header and reads back as zero ops.
func TestSegEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSegWriter(&buf, 0)
	if err := sw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if buf.Len() != 5 {
		t.Fatalf("empty trace is %d bytes, want 5 (magic+version)", buf.Len())
	}
	got, err := NewSegReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty trace decoded %d ops", len(got))
	}
}

// TestDecoderAutoDetect checks the Decoder sniffs both formats and
// yields identical ops from each.
func TestDecoderAutoDetect(t *testing.T) {
	ops := genOps(800)

	var spb1 bytes.Buffer
	w := NewWriter(&spb1)
	for _, op := range ops {
		if err := w.Write(op); err != nil {
			t.Fatalf("SPB1 Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("SPB1 Flush: %v", err)
	}
	spb2 := encodeSPB2(t, ops, 0)

	for _, tc := range []struct {
		name string
		data []byte
		want Format
	}{
		{"spb1", spb1.Bytes(), FormatSPB1},
		{"spb2", spb2, FormatSPB2},
	} {
		d, err := NewDecoder(bytes.NewReader(tc.data))
		if err != nil {
			t.Fatalf("%s: NewDecoder: %v", tc.name, err)
		}
		if d.Format() != tc.want {
			t.Fatalf("%s: Format = %v, want %v", tc.name, d.Format(), tc.want)
		}
		got, err := d.ReadAll()
		if err != nil {
			t.Fatalf("%s: ReadAll: %v", tc.name, err)
		}
		opsEqual(t, got, ops, tc.name+" decode")
	}

	if _, err := NewDecoder(bytes.NewReader([]byte("GARBAGE!"))); err == nil {
		t.Fatal("decoder accepted unknown magic")
	} else if _, ok := err.(*CorruptTraceError); !ok {
		t.Fatalf("unknown magic error type %T, want *CorruptTraceError", err)
	}
}

// TestFileBatchSourceMatchesSlice checks replaying an encoded trace
// through FileBatchSource yields exactly the ops of a SliceBatchSource
// over the original stream — through both the batched and the scalar
// interface, for both on-disk formats.
func TestFileBatchSourceMatchesSlice(t *testing.T) {
	ops := genOps(10_000)
	spb2 := encodeSPB2(t, ops, 777) // segments misaligned with DefaultBatchCap
	var spb1 bytes.Buffer
	w := NewWriter(&spb1)
	for _, op := range ops {
		if err := w.Write(op); err != nil {
			t.Fatalf("SPB1 Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("SPB1 Flush: %v", err)
	}

	for _, tc := range []struct {
		name string
		data []byte
	}{{"spb2", spb2}, {"spb1", spb1.Bytes()}} {
		// Batched interface.
		fs, err := NewFileBatchSource(bytes.NewReader(tc.data))
		if err != nil {
			t.Fatalf("%s: NewFileBatchSource: %v", tc.name, err)
		}
		var got []Op
		b := NewBatch(DefaultBatchCap)
		for fs.NextBatch(b) {
			for i := 0; i < b.Len(); i++ {
				got = append(got, b.Op(i))
			}
		}
		if err := fs.Err(); err != nil {
			t.Fatalf("%s: Err after NextBatch drain: %v", tc.name, err)
		}
		opsEqual(t, got, ops, tc.name+" NextBatch")
		if fs.Count() != uint64(len(ops)) {
			t.Fatalf("%s: Count = %d, want %d", tc.name, fs.Count(), len(ops))
		}

		// Scalar interface.
		fs2, err := NewFileBatchSource(bytes.NewReader(tc.data))
		if err != nil {
			t.Fatalf("%s: NewFileBatchSource: %v", tc.name, err)
		}
		got = got[:0]
		for {
			op, ok := fs2.Next()
			if !ok {
				break
			}
			got = append(got, op)
		}
		if err := fs2.Err(); err != nil {
			t.Fatalf("%s: Err after Next drain: %v", tc.name, err)
		}
		opsEqual(t, got, ops, tc.name+" Next")
	}
}

// TestFileBatchSourceDoubleBuffer checks the aliasing contract a
// double-buffered consumer depends on: the views installed into one
// consumer batch must stay intact while the source refills a second
// batch (i.e. the source alternates internal buffers rather than
// decoding over live data).
func TestFileBatchSourceDoubleBuffer(t *testing.T) {
	ops := genOps(3 * DefaultBatchCap)
	enc := encodeSPB2(t, ops, DefaultBatchCap)
	fs, err := NewFileBatchSource(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("NewFileBatchSource: %v", err)
	}
	cur, next := NewBatch(DefaultBatchCap), NewBatch(DefaultBatchCap)
	if !fs.NextBatch(cur) {
		t.Fatal("first NextBatch returned false")
	}
	pos := 0
	for fs.NextBatch(next) {
		// cur's views must still hold the previous chunk's ops even
		// though the source has since decoded the next segment.
		for i := 0; i < cur.Len(); i++ {
			if cur.Op(i) != ops[pos+i] {
				t.Fatalf("op %d clobbered while next batch decoded: %+v, want %+v",
					pos+i, cur.Op(i), ops[pos+i])
			}
		}
		pos += cur.Len()
		cur, next = next, cur
	}
	if err := fs.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	for i := 0; i < cur.Len(); i++ {
		if cur.Op(i) != ops[pos+i] {
			t.Fatalf("final batch op %d = %+v, want %+v", pos+i, cur.Op(i), ops[pos+i])
		}
	}
	if pos+cur.Len() != len(ops) {
		t.Fatalf("replayed %d ops, want %d", pos+cur.Len(), len(ops))
	}
}

// TestSPB2SmallerThanSPB1 checks SPB2 wins even on this deliberately
// hostile stream — random addresses, half the payloads incompressible.
// The headline >=2x gate runs against the real zoo traces in the
// workload package, next to the generators that produce them.
func TestSPB2SmallerThanSPB1(t *testing.T) {
	ops := genOps(20_000)
	var spb1 bytes.Buffer
	w := NewWriter(&spb1)
	for _, op := range ops {
		if err := w.Write(op); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	spb2 := encodeSPB2(t, ops, 0)
	if ratio := float64(spb1.Len()) / float64(len(spb2)); ratio < 1.25 {
		t.Fatalf("SPB2 only %.2fx smaller than SPB1 (%d vs %d bytes), want >= 1.25x",
			ratio, len(spb2), spb1.Len())
	}
}

// TestZigzag checks the zigzag helpers over edge values.
func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63} {
		if got := unzigzag64(zigzag64(v)); got != v {
			t.Fatalf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
}
