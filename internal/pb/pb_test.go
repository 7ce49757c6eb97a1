package pb

import (
	"errors"
	"testing"

	"secpb/internal/addr"
)

type noExt struct{}

func newBuf(t *testing.T, capacity int) *Buffer[noExt] {
	t.Helper()
	b, err := New[noExt](capacity, 0.75, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New[noExt](0, 0.75, 0.25); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New[noExt](8, 0.25, 0.75); err == nil {
		t.Error("inverted watermarks accepted")
	}
	if _, err := New[noExt](8, 1.5, 0.25); err == nil {
		t.Error("hi > 1 accepted")
	}
}

func TestWriteAllocatesAndCoalesces(t *testing.T) {
	b := newBuf(t, 4)
	blk := addr.BlockOf(0x1000)
	e, allocated, err := b.WriteInit(0, blk, 0, 8, 0x1122334455667788, nil)
	if err != nil || !allocated {
		t.Fatalf("first write: alloc=%v err=%v", allocated, err)
	}
	if e.Data[0] != 0x88 || e.Data[7] != 0x11 {
		t.Error("little-endian merge wrong")
	}
	// Second store to same block coalesces.
	e2, allocated, err := b.WriteInit(0, blk, 8, 4, 0xAABBCCDD, nil)
	if err != nil || allocated {
		t.Fatalf("coalescing write: alloc=%v err=%v", allocated, err)
	}
	if e2 != e {
		t.Error("coalescing created a new entry")
	}
	if e.Writes != 2 {
		t.Errorf("writes = %d", e.Writes)
	}
	if e.Data[8] != 0xDD || e.Data[11] != 0xAA {
		t.Error("second merge wrong")
	}
	if b.Len() != 1 {
		t.Errorf("len = %d", b.Len())
	}
}

func TestWriteFetchesInitialContents(t *testing.T) {
	b := newBuf(t, 4)
	var init [addr.BlockBytes]byte
	for i := range init {
		init[i] = 0xEE
	}
	e, _, err := b.WriteInit(0, addr.BlockOf(0x40), 4, 1, 0x07, &init)
	if err != nil {
		t.Fatal(err)
	}
	if e.Data[3] != 0xEE || e.Data[4] != 0x07 || e.Data[5] != 0xEE {
		t.Error("fetch-merge wrong: partial store must preserve other bytes")
	}
}

func TestWriteValidation(t *testing.T) {
	b := newBuf(t, 4)
	cases := []struct{ off, size int }{{-1, 8}, {0, 0}, {0, 9}, {60, 8}}
	for _, c := range cases {
		if _, _, err := b.WriteInit(0, addr.BlockOf(0), c.off, c.size, 0, nil); err == nil {
			t.Errorf("off=%d size=%d accepted", c.off, c.size)
		}
	}
}

func TestFullReturnsErrFull(t *testing.T) {
	b := newBuf(t, 2)
	b.WriteInit(0, addr.BlockOf(0x000), 0, 8, 1, nil)
	b.WriteInit(0, addr.BlockOf(0x040), 0, 8, 2, nil)
	if !b.Full() {
		t.Fatal("buffer not full after capacity allocations")
	}
	// Coalescing write still works when full.
	if _, _, err := b.WriteInit(0, addr.BlockOf(0x000), 8, 8, 3, nil); err != nil {
		t.Errorf("coalescing write failed on full buffer: %v", err)
	}
	// New allocation fails.
	_, _, err := b.WriteInit(0, addr.BlockOf(0x080), 0, 8, 4, nil)
	if !errors.Is(err, ErrFull) {
		t.Errorf("err = %v, want ErrFull", err)
	}
}

func TestWatermarks(t *testing.T) {
	b := newBuf(t, 8) // hi = 6, lo = 2
	for i := 0; i < 5; i++ {
		b.WriteInit(0, addr.FromIndex(uint64(i)), 0, 8, 0, nil)
	}
	if b.AboveHigh() {
		t.Error("above high at 5/8")
	}
	b.WriteInit(0, addr.FromIndex(5), 0, 8, 0, nil)
	if !b.AboveHigh() {
		t.Error("not above high at 6/8")
	}
	for b.Len() > 2 {
		b.DrainOldest()
	}
	if b.AboveLow() {
		t.Error("above low at 2/8 (lo=2)")
	}
}

func TestDrainOldestFIFO(t *testing.T) {
	b := newBuf(t, 4)
	blocks := []addr.Block{addr.FromIndex(3), addr.FromIndex(1), addr.FromIndex(2)}
	for _, blk := range blocks {
		b.WriteInit(0, blk, 0, 8, 0, nil)
	}
	for i, want := range blocks {
		e := b.DrainOldest()
		if e == nil || e.Block != want {
			t.Fatalf("drain %d = %v, want %v", i, e, want)
		}
	}
	if b.DrainOldest() != nil {
		t.Error("drain of empty buffer returned entry")
	}
}

func TestRemoveSkipsStaleFIFO(t *testing.T) {
	b := newBuf(t, 4)
	b.WriteInit(0, addr.FromIndex(1), 0, 8, 0, nil)
	b.WriteInit(0, addr.FromIndex(2), 0, 8, 0, nil)
	if e := b.Remove(addr.FromIndex(1)); e == nil || e.Block != addr.FromIndex(1) {
		t.Fatal("Remove failed")
	}
	if e := b.Remove(addr.FromIndex(1)); e != nil {
		t.Error("double remove returned entry")
	}
	// DrainOldest must skip the removed block's stale FIFO slot.
	e := b.DrainOldest()
	if e == nil || e.Block != addr.FromIndex(2) {
		t.Fatalf("drain after remove = %v", e)
	}
}

func TestReallocationAfterDrainIsNewEntry(t *testing.T) {
	b := newBuf(t, 4)
	blk := addr.FromIndex(9)
	b.WriteInit(0, blk, 0, 8, 1, nil)
	b.DrainOldest()
	e, allocated, err := b.WriteInit(0, blk, 0, 8, 2, nil)
	if err != nil || !allocated {
		t.Fatalf("realloc: alloc=%v err=%v", allocated, err)
	}
	if e.Writes != 1 {
		t.Errorf("recycled entry writes = %d, want 1", e.Writes)
	}
}

func TestNWPE(t *testing.T) {
	b := newBuf(t, 4)
	blk1, blk2 := addr.FromIndex(1), addr.FromIndex(2)
	b.WriteInit(0, blk1, 0, 8, 0, nil)
	b.WriteInit(0, blk1, 8, 8, 0, nil)
	b.WriteInit(0, blk1, 16, 8, 0, nil) // 3 writes
	b.WriteInit(0, blk2, 0, 8, 0, nil)  // 1 write
	if b.NWPE() != 0 {
		t.Error("NWPE counted resident entries")
	}
	b.DrainOldest()
	b.DrainOldest()
	if got := b.NWPE(); got != 2 {
		t.Errorf("NWPE = %v, want 2", got)
	}
}

// entries collects a walk of b.
func entries[E any](b *Buffer[E]) []*Entry[E] {
	var out []*Entry[E]
	b.Walk(func(e *Entry[E]) { out = append(out, e) })
	return out
}

// A block removed and re-allocated has two FIFO slots; the walk visits
// its live entry once, at the first — where DrainOldest drains it.
func TestWalkVisitsReallocatedBlockOnce(t *testing.T) {
	b := newBuf(t, 4)
	for _, i := range []uint64{1, 2, 3} {
		b.WriteInit(0, addr.FromIndex(i), 0, 8, i, nil)
	}
	b.Remove(addr.FromIndex(1))
	b.WriteInit(0, addr.FromIndex(1), 0, 8, 9, nil)
	var got []addr.Block
	for _, e := range entries(b) {
		got = append(got, e.Block)
	}
	want := []addr.Block{addr.FromIndex(1), addr.FromIndex(2), addr.FromIndex(3)}
	if len(got) != len(want) {
		t.Fatalf("walk visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk visited %v, want %v", got, want)
		}
		if e := b.DrainOldest(); e.Block != want[i] {
			t.Fatalf("drain %d = %#x, walk order %v", i, e.Block, got)
		}
	}
}

func TestEntriesOldestFirst(t *testing.T) {
	b := newBuf(t, 4)
	for i := 0; i < 3; i++ {
		b.WriteInit(0, addr.FromIndex(uint64(10-i)), 0, 8, 0, nil)
	}
	es := entries(b)
	if len(es) != 3 {
		t.Fatalf("entries = %d", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].Seq < es[i-1].Seq {
			t.Error("entries not in allocation order")
		}
	}
}

func TestStats(t *testing.T) {
	b := newBuf(t, 4)
	b.WriteInit(0, addr.FromIndex(1), 0, 8, 0, nil)
	b.WriteInit(0, addr.FromIndex(1), 0, 8, 0, nil)
	b.WriteInit(0, addr.FromIndex(2), 0, 8, 0, nil)
	b.DrainOldest()
	allocs, writes, drains := b.Stats()
	if allocs != 2 || writes != 3 || drains != 1 {
		t.Errorf("stats = %d/%d/%d", allocs, writes, drains)
	}
}

func TestExtPayload(t *testing.T) {
	type secExt struct {
		counter uint64
		valid   bool
	}
	b, err := New[secExt](4, 0.75, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	e, _, _ := b.WriteInit(0, addr.FromIndex(1), 0, 8, 0, nil)
	e.Ext.counter = 42
	e.Ext.valid = true
	if got := b.Lookup(addr.FromIndex(1)); got.Ext.counter != 42 || !got.Ext.valid {
		t.Error("extension payload not retained")
	}
}

func BenchmarkWriteCoalesce(b *testing.B) {
	buf, _ := New[noExt](32, 0.75, 0.25)
	blk := addr.FromIndex(1)
	buf.WriteInit(0, blk, 0, 8, 0, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.WriteInit(0, blk, i%8*8, 8, uint64(i), nil)
	}
}
