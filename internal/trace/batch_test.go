package trace

import "testing"

func TestBatchAppendOpRoundTrip(t *testing.T) {
	b := NewBatch(4)
	ops := []Op{
		{Kind: Store, Addr: 0x1000, Size: 8, Data: 0xDEAD, Gap: 3},
		{Kind: Load, Addr: 0x2008, Size: 4, Gap: 0},
		{Kind: Store, Addr: 0x3010, Size: 1, Data: 0xFF, Gap: 1000},
	}
	for _, op := range ops {
		if b.Full() {
			t.Fatal("batch full before capacity")
		}
		b.Append(op)
	}
	if b.Len() != len(ops) || b.Cap() != 4 {
		t.Fatalf("Len/Cap = %d/%d, want %d/4", b.Len(), b.Cap(), len(ops))
	}
	for i, want := range ops {
		if got := b.Op(i); got != want {
			t.Errorf("Op(%d) = %+v, want %+v", i, got, want)
		}
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	b.Append(Op{Kind: Load, Addr: 0x40, Size: 8})
	if !b.Full() {
		t.Error("batch not full at capacity")
	}
	b.Reset()
	if b.Len() != 0 || b.Cap() != 4 {
		t.Errorf("after Reset: Len/Cap = %d/%d, want 0/4", b.Len(), b.Cap())
	}
}

func TestBatchValidateRejectsBadOp(t *testing.T) {
	b := NewBatch(2)
	b.Append(Op{Kind: Store, Addr: 0x1000, Size: 8, Data: 1})
	b.Append(Op{Kind: Store, Addr: 0x1000, Size: 0}) // invalid size
	if err := b.Validate(); err == nil {
		t.Fatal("Validate accepted an invalid op")
	}
}

func TestNewBatchDefaultCap(t *testing.T) {
	if got := NewBatch(0).Cap(); got != DefaultBatchCap {
		t.Errorf("NewBatch(0).Cap() = %d, want %d", got, DefaultBatchCap)
	}
	if got := NewBatch(-3).Cap(); got != DefaultBatchCap {
		t.Errorf("NewBatch(-3).Cap() = %d, want %d", got, DefaultBatchCap)
	}
}

// TestBatchCursorsIndependent checks that cursors over one shared batch
// advance independently, replay every op in order and never copy the
// columns.
func TestBatchCursorsIndependent(t *testing.T) {
	ops := genOps(2*DefaultBatchCap + 17)
	shared := NewBatch(len(ops))
	for _, op := range ops {
		shared.Append(op)
	}
	a, b := NewBatchCursor(shared), NewBatchCursor(shared)
	ba, bb := NewBatch(DefaultBatchCap), NewBatch(DefaultBatchCap)
	if !a.NextBatch(ba) {
		t.Fatal("cursor a empty")
	}
	pos := 0
	for b.NextBatch(bb) {
		if &bb.Kinds[0] != &shared.Kinds[pos] {
			t.Fatalf("cursor b copied the columns at op %d", pos)
		}
		for i := 0; i < bb.Len(); i++ {
			if bb.Op(i) != ops[pos+i] {
				t.Fatalf("op %d = %+v, want %+v", pos+i, bb.Op(i), ops[pos+i])
			}
		}
		pos += bb.Len()
	}
	if pos != len(ops) {
		t.Fatalf("cursor b replayed %d ops, want %d", pos, len(ops))
	}
	// Draining b did not move a.
	if ba.Op(0) != ops[0] || !a.NextBatch(ba) || ba.Op(0) != ops[DefaultBatchCap] {
		t.Fatal("cursor a was advanced by cursor b")
	}
}
