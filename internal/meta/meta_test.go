package meta

import (
	"reflect"
	"testing"
	"testing/quick"

	"secpb/internal/addr"
	"secpb/internal/crypto"
)

func TestCounterStartsAtZero(t *testing.T) {
	cs := NewCounterStore()
	if v := cs.Value(addr.BlockOf(0x5000)); v != 0 {
		t.Errorf("fresh counter = %d, want 0", v)
	}
	if cs.Pages() != 1 {
		t.Errorf("pages = %d", cs.Pages())
	}
}

func TestIncrementMonotonic(t *testing.T) {
	cs := NewCounterStore()
	b := addr.BlockOf(0x1000)
	var prev uint64
	for i := 0; i < 300; i++ { // crosses one minor overflow
		v, _ := cs.Increment(b)
		if v <= prev && i > 0 {
			t.Fatalf("counter not monotonic at step %d: %d <= %d", i, v, prev)
		}
		prev = v
	}
}

func TestMinorOverflowReencryptsPage(t *testing.T) {
	cs := NewCounterStore()
	b := addr.BlockOf(0x2000)
	sib := addr.BlockOf(0x2040) // same page
	cs.Increment(sib)
	if cs.Value(sib) != 1 {
		t.Fatalf("sibling counter = %d", cs.Value(sib))
	}
	var overflowed bool
	for i := 0; i < 256; i++ {
		_, ov := cs.Increment(b)
		overflowed = overflowed || ov
	}
	if !overflowed {
		t.Fatal("256 increments did not overflow an 8-bit minor counter")
	}
	if cs.Overflows() != 1 {
		t.Errorf("overflow count = %d", cs.Overflows())
	}
	// After overflow the whole page's minors reset under a new major:
	// the sibling's combined value must have changed (its old pad is
	// dead and it must be re-encrypted).
	if cs.Value(sib) != 1<<MinorBits {
		t.Errorf("sibling counter after overflow = %d, want %d", cs.Value(sib), 1<<MinorBits)
	}
}

func TestCountersIndependentAcrossPages(t *testing.T) {
	cs := NewCounterStore()
	a := addr.BlockOf(0x1000)
	b := addr.BlockOf(0x2000)
	cs.Increment(a)
	if cs.Value(b) != 0 {
		t.Error("increment leaked across pages")
	}
}

func TestCounterLineValueLayout(t *testing.T) {
	cl := &CounterLine{Major: 3}
	cl.Minors[5] = 7
	if got := cl.Value(5); got != 3<<MinorBits|7 {
		t.Errorf("Value = %d", got)
	}
}

func TestCounterLineBytesChangeWithContents(t *testing.T) {
	check := func(major uint64, idx uint8, minor uint8) bool {
		cl := &CounterLine{Major: major}
		base := cl.Bytes()
		cl.Minors[int(idx)%addr.BlocksPerPage] = minor
		changed := cl.Bytes()
		if minor == 0 {
			return string(base) == string(changed)
		}
		return string(base) != string(changed)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	cs := NewCounterStore()
	b := addr.BlockOf(0x3000)
	cs.Increment(b)
	snap := cs.Snapshot()
	cs.Increment(b)
	if snap.Value(b) != 1 || cs.Value(b) != 2 {
		t.Errorf("snapshot = %d live = %d", snap.Value(b), cs.Value(b))
	}
}

func TestCounterTamper(t *testing.T) {
	cs := NewCounterStore()
	b := addr.BlockOf(0x4000)
	cs.Increment(b)
	if err := cs.Tamper(b, 99); err != nil {
		t.Fatal(err)
	}
	if cs.Value(b) != 99 {
		t.Errorf("tampered value = %d", cs.Value(b))
	}
	if err := cs.Tamper(addr.BlockOf(0x999000), 1); err == nil {
		t.Error("tampering untouched page succeeded")
	}
}

func TestPeek(t *testing.T) {
	cs := NewCounterStore()
	if _, ok := cs.Peek(7); ok {
		t.Error("Peek materialized a line")
	}
	cs.Line(7)
	if _, ok := cs.Peek(7); !ok {
		t.Error("Peek missed a materialized line")
	}
}

func TestMACStoreRoundTrip(t *testing.T) {
	ms := NewMACStore()
	b := addr.BlockOf(0x1000)
	var tag [crypto.MACSize]byte
	tag[0] = 0xAB
	ms.Put(b, tag)
	got, ok := ms.Get(b)
	if !ok || got != tag {
		t.Fatal("Get after Put failed")
	}
	if err := ms.Verify(b, tag); err != nil {
		t.Errorf("Verify failed: %v", err)
	}
	var wrong [crypto.MACSize]byte
	if err := ms.Verify(b, wrong); err == nil {
		t.Error("Verify accepted wrong tag")
	}
	if err := ms.Verify(addr.BlockOf(0x2000), tag); err == nil {
		t.Error("Verify accepted missing block")
	}
	if ms.Len() != 1 {
		t.Errorf("Len = %d", ms.Len())
	}
}

func TestMACTamperDetected(t *testing.T) {
	ms := NewMACStore()
	b := addr.BlockOf(0x1000)
	var tag [crypto.MACSize]byte
	ms.Put(b, tag)
	if err := ms.Tamper(b, 13); err != nil {
		t.Fatal(err)
	}
	if err := ms.Verify(b, tag); err == nil {
		t.Error("tamper not detected")
	}
	if err := ms.Tamper(addr.BlockOf(0x9000), 0); err == nil {
		t.Error("tampering absent MAC succeeded")
	}
}

func TestMACSnapshot(t *testing.T) {
	ms := NewMACStore()
	b := addr.BlockOf(0x40)
	var tag [crypto.MACSize]byte
	tag[1] = 1
	ms.Put(b, tag)
	snap := ms.Snapshot()
	tag[1] = 2
	ms.Put(b, tag)
	got, _ := snap.Get(b)
	if got[1] != 1 {
		t.Error("snapshot mutated by later Put")
	}
}

func TestLineAddrDistinct(t *testing.T) {
	if LineAddr(1) == LineAddr(2) {
		t.Error("counter line addresses collide")
	}
	b1 := addr.FromIndex(0)
	b2 := addr.FromIndex(8)
	if MACLineAddr(b1) == MACLineAddr(b2) {
		t.Error("MAC line addresses collide across lines")
	}
	if MACLineAddr(b1) != MACLineAddr(addr.FromIndex(7)) {
		t.Error("blocks 0..7 must share a MAC line")
	}
}

// TestCounterStoreResetMatchesNew: a store with lines, advanced minors
// and an overflow, once reset, reads zero everywhere and then counts
// exactly like a new store through the same increments, overflow
// included.
func TestCounterStoreResetMatchesNew(t *testing.T) {
	cs := NewCounterStore()
	hot := addr.BlockOf(0x5000)
	for i := 0; i < 300; i++ {
		cs.Increment(hot)
		cs.Increment(addr.BlockOf(uint64(i) << 12))
	}
	if cs.Overflows() == 0 {
		t.Fatal("setup caused no overflow")
	}
	cs.Reset()
	if _, ok := cs.Peek(hot.Page()); ok || cs.Pages() != 0 || cs.Overflows() != 0 {
		t.Fatalf("reset store: hot line present %v, %d pages, %d overflows", ok, cs.Pages(), cs.Overflows())
	}
	fresh := NewCounterStore()
	for i := 0; i < 600; i++ {
		b := hot
		if i%2 == 1 {
			b = addr.BlockOf(uint64(i%7) << 12)
		}
		g, gov := cs.Increment(b)
		w, wov := fresh.Increment(b)
		if g != w || gov != wov {
			t.Fatalf("increment %d: reset store %d/%v, new store %d/%v", i, g, gov, w, wov)
		}
	}
	lines := func(cs *CounterStore) map[uint64]CounterLine {
		m := map[uint64]CounterLine{}
		cs.RangeLines(func(page uint64, cl *CounterLine) bool {
			m[page] = *cl
			return true
		})
		return m
	}
	if fresh.Overflows() == 0 {
		t.Fatal("replayed increments caused no overflow")
	}
	if !reflect.DeepEqual(lines(cs), lines(fresh)) || cs.Overflows() != fresh.Overflows() {
		t.Error("reset store differs from a new one after the same increments")
	}
}

// TestMACStoreResetMatchesNew: a reset MAC store holds no tag and then
// stores and verifies like a new one.
func TestMACStoreResetMatchesNew(t *testing.T) {
	ms := NewMACStore()
	var tag [crypto.MACSize]byte
	for i := uint64(0); i < 600; i++ {
		tag[0] = byte(i)
		ms.Put(addr.BlockOf(i<<6), tag)
	}
	ms.Reset()
	if ms.Len() != 0 {
		t.Fatalf("reset store holds %d tags", ms.Len())
	}
	if _, ok := ms.Get(addr.BlockOf(5 << 6)); ok {
		t.Fatal("a tag stored before Reset is still present")
	}
	if err := ms.Verify(addr.BlockOf(5<<6), tag); err == nil {
		t.Fatal("a reset store verified a tag it no longer holds")
	}
	fresh := NewMACStore()
	tag[0] = 0xAB
	for _, s := range []*MACStore{ms, fresh} {
		s.Put(addr.BlockOf(7<<6), tag)
		*s.PutSlot(addr.BlockOf(9 << 6)) = tag
	}
	for i := uint64(0); i < 600; i++ {
		g, gok := ms.Get(addr.BlockOf(i << 6))
		w, wok := fresh.Get(addr.BlockOf(i << 6))
		if g != w || gok != wok {
			t.Fatalf("block %d: reset store %v, new store %v", i, gok, wok)
		}
	}
	if ms.Len() != fresh.Len() {
		t.Errorf("reset store holds %d tags, new store %d", ms.Len(), fresh.Len())
	}
}
