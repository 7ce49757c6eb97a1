package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// opsFromFuzz synthesizes a valid op stream from arbitrary fuzz bytes:
// every 8-byte window deterministically becomes one valid op, so the
// fuzzer explores kind mixes, address deltas, gap patterns and payload
// shapes without ever tripping Write's validity check.
func opsFromFuzz(data []byte) []Op {
	var ops []Op
	for len(data) >= 8 {
		w := binary.LittleEndian.Uint64(data)
		data = data[8:]
		switch w % 5 {
		case 0:
			ops = append(ops, Op{Kind: Fence})
		case 1, 2:
			sz := uint8(1 << (w >> 3 % 4))
			ops = append(ops, Op{
				Kind: Load,
				Addr: (w >> 5 % (1 << 30)) &^ uint64(sz-1),
				Size: sz,
				Gap:  uint32(w >> 35 % 1000),
			})
		default:
			sz := uint8(1 << (w >> 3 % 4))
			ops = append(ops, Op{
				Kind: Store,
				Addr: (w >> 5 % (1 << 30)) &^ uint64(sz-1),
				Size: sz,
				Data: w * 0x9e3779b97f4a7c15,
				Gap:  uint32(w >> 35 % 1000),
			})
		}
	}
	return ops
}

// FuzzSegRoundTrip: any valid op stream must encode and decode op-exact
// at any segment granularity, through both the scalar and the batched
// writer path.
func FuzzSegRoundTrip(f *testing.F) {
	f.Add([]byte{}, 1)
	f.Add(bytes.Repeat([]byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88}, 16), 3)
	f.Add([]byte("the quick brown fox jumps over the lazy dog....."), 4096)
	f.Add(bytes.Repeat([]byte{0}, 64), 2)
	f.Fuzz(func(t *testing.T, data []byte, segOps int) {
		if segOps < 0 || segOps > 1<<16 {
			segOps %= 1 << 16
		}
		ops := opsFromFuzz(data)

		var buf bytes.Buffer
		sw := NewSegWriter(&buf, segOps)
		for _, op := range ops {
			if err := sw.Write(op); err != nil {
				t.Fatalf("Write(%+v): %v", op, err)
			}
		}
		if err := sw.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}

		got, err := NewSegReader(bytes.NewReader(buf.Bytes())).ReadAll()
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if len(got) != len(ops) {
			t.Fatalf("round trip: %d ops, want %d", len(got), len(ops))
		}
		for i := range ops {
			if got[i] != ops[i] {
				t.Fatalf("op %d: %+v, want %+v", i, got[i], ops[i])
			}
		}

		// The batched writer must produce the identical byte stream.
		if len(ops) > 0 {
			var buf2 bytes.Buffer
			sw2 := NewSegWriter(&buf2, segOps)
			src := NewSliceBatchSource(ops)
			b := NewBatch(DefaultBatchCap)
			for src.NextBatch(b) {
				if err := sw2.WriteBatch(b); err != nil {
					t.Fatalf("WriteBatch: %v", err)
				}
			}
			if err := sw2.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatal("batched encoding differs from scalar encoding")
			}
		}
	})
}

// FuzzSegReader: arbitrary bytes must never panic the decoder — every
// outcome is a clean EOF, a typed *CorruptTraceError or
// *EmptyTraceError, or (for a stream that happens to be valid) ops
// that re-encode round-trip.
func FuzzSegReader(f *testing.F) {
	var seed bytes.Buffer
	sw := NewSegWriter(&seed, 2)
	sw.Write(Op{Kind: Store, Addr: 0x1000, Size: 8, Data: 42, Gap: 7})
	sw.Write(Op{Kind: Load, Addr: 0x2000, Size: 4, Gap: 0})
	sw.Write(Op{Kind: Fence})
	sw.Flush()
	f.Add(seed.Bytes())
	mut := bytes.Clone(seed.Bytes())
	mut[9] ^= 0x10
	f.Add(mut)
	f.Add(seed.Bytes()[:len(seed.Bytes())-3])
	f.Add([]byte("SPB2"))
	f.Add([]byte{'S', 'P', 'B', '2', SPB2Version})
	f.Add([]byte{'S', 'P', 'B', '2', SPB2Version, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte("SPB1junk"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := NewSegReader(bytes.NewReader(data)).ReadAll()
		for _, op := range ops {
			if verr := op.Validate(); verr != nil {
				t.Fatalf("decoder emitted invalid op %+v: %v", op, verr)
			}
		}
		if err != nil {
			var ce *CorruptTraceError
			var ee *EmptyTraceError
			if !errors.As(err, &ce) && !errors.As(err, &ee) {
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
			return
		}
		// Fully decoded: the stream must re-encode and re-decode stable.
		var out bytes.Buffer
		sw := NewSegWriter(&out, 0)
		for _, op := range ops {
			if err := sw.Write(op); err != nil {
				t.Fatalf("decoded op %+v does not re-encode: %v", op, err)
			}
		}
		if err := sw.Flush(); err != nil {
			t.Fatal(err)
		}
		ops2, err := NewSegReader(bytes.NewReader(out.Bytes())).ReadAll()
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(ops2) != len(ops) {
			t.Fatalf("re-decode count %d != %d", len(ops2), len(ops))
		}
		for i := range ops {
			if ops[i] != ops2[i] {
				t.Fatalf("op %d changed across re-encode", i)
			}
		}
	})
}
