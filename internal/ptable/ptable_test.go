package ptable

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestTableVsMapDifferential drives a Table and a reference map through
// the same random insert/lookup/overwrite sequence and checks they
// agree at every step and under full iteration.
func TestTableVsMapDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tab := New[uint64]()
	ref := map[uint64]uint64{}

	// Key mix: dense low keys (the direct pages), sparse high keys, and
	// keys past maxDirect (the overflow map).
	randKey := func() uint64 {
		switch r.Intn(3) {
		case 0:
			return uint64(r.Intn(4096))
		case 1:
			return uint64(r.Int63n(1 << 27))
		default:
			return maxDirect + uint64(r.Int63n(1<<30))
		}
	}

	for step := 0; step < 20000; step++ {
		k := randKey()
		switch r.Intn(3) {
		case 0: // Put
			v := r.Uint64()
			tab.Put(k, v)
			ref[k] = v
		case 1: // GetOrCreate + mutate through the pointer
			p, created := tab.GetOrCreate(k)
			if _, inRef := ref[k]; created == inRef {
				t.Fatalf("step %d: GetOrCreate(%d) created=%v but ref has=%v", step, k, created, inRef)
			}
			if !created && *p != ref[k] {
				t.Fatalf("step %d: GetOrCreate(%d) = %d, ref %d", step, k, *p, ref[k])
			}
			v := r.Uint64()
			*p = v
			ref[k] = v
		case 2: // Lookup / Get
			p := tab.Lookup(k)
			want, ok := ref[k]
			if (p != nil) != ok {
				t.Fatalf("step %d: Lookup(%d) present=%v, ref %v", step, k, p != nil, ok)
			}
			if ok && *p != want {
				t.Fatalf("step %d: Lookup(%d) = %d, ref %d", step, k, *p, want)
			}
			if v, gok := tab.Get(k); gok != ok || (ok && v == nil) {
				t.Fatalf("step %d: Get(%d) ok=%v, ref %v", step, k, gok, ok)
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, ref %d", step, tab.Len(), len(ref))
		}
	}

	// Range must visit exactly the reference keys, ascending.
	wantKeys := make([]uint64, 0, len(ref))
	for k := range ref {
		wantKeys = append(wantKeys, k)
	}
	sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i] < wantKeys[j] })
	var got []uint64
	tab.Range(func(k uint64, v *uint64) bool {
		if *v != ref[k] {
			t.Fatalf("Range(%d) = %d, ref %d", k, *v, ref[k])
		}
		got = append(got, k)
		return true
	})
	if len(got) != len(wantKeys) {
		t.Fatalf("Range visited %d keys, ref %d", len(got), len(wantKeys))
	}
	for i := range got {
		if got[i] != wantKeys[i] {
			t.Fatalf("Range order: key[%d] = %d, want %d", i, got[i], wantKeys[i])
		}
	}

	// Keys agrees with Range; Clone is deep for values.
	keys := tab.Keys()
	for i := range keys {
		if keys[i] != wantKeys[i] {
			t.Fatalf("Keys[%d] = %d, want %d", i, keys[i], wantKeys[i])
		}
	}
	cl := tab.Clone()
	if cl.Len() != tab.Len() {
		t.Fatalf("Clone Len = %d, want %d", cl.Len(), tab.Len())
	}
	if len(wantKeys) > 0 {
		k := wantKeys[0]
		*cl.Lookup(k) = ^ref[k]
		if *tab.Lookup(k) != ref[k] {
			t.Error("mutating a clone changed the original")
		}
	}
}

// assertSameTable checks got against want through every observation
// the table offers: Len, Keys, Range (keys, order and values), Lookup
// of each key, and the values and presence bits of every Octet that
// covers a present key or one of the probe keys.
func assertSameTable(t *testing.T, got, want *Table[uint64], probes []uint64) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	gk, wk := got.Keys(), want.Keys()
	if !slices.Equal(gk, wk) {
		t.Fatalf("Keys = %v, want %v", gk, wk)
	}
	var gr, wr []uint64
	got.Range(func(k uint64, v *uint64) bool { gr = append(gr, k, *v); return true })
	want.Range(func(k uint64, v *uint64) bool { wr = append(wr, k, *v); return true })
	if !slices.Equal(gr, wr) {
		t.Fatalf("Range = %v, want %v", gr, wr)
	}
	for _, k := range append(wk, probes...) {
		g, w := got.Lookup(k), want.Lookup(k)
		if (g == nil) != (w == nil) || (g != nil && *g != *w) {
			t.Fatalf("Lookup(%d) differs", k)
		}
		gv, gp, gok := got.Octet(k &^ 7)
		wv, wp, wok := want.Octet(k &^ 7)
		if gp != wp || gok != wok {
			t.Fatalf("Octet(%d) presence %08b/%v, want %08b/%v", k&^7, gp, gok, wp, wok)
		}
		for i := 0; i < 8; i++ {
			var g, w uint64 // an unallocated page reads as zeros
			if gv != nil {
				g = gv[i]
			}
			if wv != nil {
				w = wv[i]
			}
			if g != w {
				t.Fatalf("Octet(%d)[%d] = %d, want %d", k&^7, i, g, w)
			}
		}
	}
}

// TestCopyIntoDirtyDestination copies into a destination that holds
// more pages than the source, stale present slots inside the source's
// pages, and overflow keys past maxDirect: the result must be
// indistinguishable from a fresh Clone, and every stale key must come
// back absent and then zero from GetOrCreate.
func TestCopyIntoDirtyDestination(t *testing.T) {
	src := New[uint64]()
	for _, k := range []uint64{1, 2, 9, 600, 4095, maxDirect + 5} {
		src.Put(k, k*10+1)
	}
	dst := New[uint64]()
	stale := []uint64{
		3, 8, 63, 64, 511, // stale slots in a page the source also holds
		5000, 1 << 20, // pages only the destination holds, one past src's directory
		maxDirect + 6, maxDirect + 1<<40, // overflow keys the source lacks
	}
	for _, k := range stale {
		dst.Put(k, ^k)
	}
	dst.Put(2, 777)            // shared key, different value
	dst.Put(maxDirect+5, 4242) // shared overflow key, different value

	got := src.CopyInto(dst)
	if got != dst {
		t.Fatal("CopyInto did not return its destination")
	}
	assertSameTable(t, dst, src.Clone(), stale)
	for _, k := range stale {
		if dst.Lookup(k) != nil {
			t.Fatalf("stale key %d still present", k)
		}
		p, created := dst.GetOrCreate(k)
		if !created || *p != 0 {
			t.Fatalf("GetOrCreate(stale %d) = %d created=%v, want fresh zero", k, *p, created)
		}
	}
	// The copy is deep both ways.
	*dst.Lookup(9) = 0
	if *src.Lookup(9) != 91 {
		t.Fatal("writing through the copy changed the source")
	}
	// Copying back into the (now larger) source and into itself.
	assertSameTable(t, dst.Clone().CopyInto(src), dst, stale)
	if src.CopyInto(src) != src {
		t.Fatal("CopyInto(self) must be a no-op returning the table")
	}
	assertSameTable(t, src, dst, stale)
}

func TestTableRangeEarlyStop(t *testing.T) {
	tab := New[int]()
	for i := uint64(0); i < 100; i++ {
		tab.Put(i*37, int(i))
	}
	seen := 0
	tab.Range(func(uint64, *int) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Fatalf("Range visited %d entries after early stop, want 5", seen)
	}
}

func TestTablePointerStability(t *testing.T) {
	tab := New[uint64]()
	p0, _ := tab.GetOrCreate(1)
	*p0 = 11
	// Grow the directory far past the first page.
	for i := uint64(0); i < 1<<16; i += 101 {
		tab.Put(i, i)
	}
	if q := tab.Lookup(1); q != p0 {
		t.Error("entry pointer moved after directory growth")
	}
}

// FuzzTableVsMap differentially fuzzes the paged table against a map
// over an arbitrary operation tape: each byte triple (op, key material)
// drives one operation on both structures.
func FuzzTableVsMap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{255, 255, 255, 255, 0, 0, 128, 9, 1, 7})
	f.Add([]byte{0, 1, 2, 0, 200, 40, 3, 1, 2, 1, 7, 7, 3, 200, 40, 2, 1, 2, 1, 200, 40})
	f.Fuzz(func(t *testing.T, tape []byte) {
		tab, spare := New[uint16](), New[uint16]()
		ref := map[uint64]uint16{}
		for i := 0; i+3 <= len(tape); i += 3 {
			op, k0, k1 := tape[i], tape[i+1], tape[i+2]
			// Spread 16 bits of key material across the interesting
			// ranges: in-page, cross-page, and past maxDirect.
			k := uint64(k0)<<uint(k1%56) | uint64(k1)
			switch op % 4 {
			case 0:
				tab.Put(k, uint16(k0)<<8|uint16(k1))
				ref[k] = uint16(k0)<<8 | uint16(k1)
			case 1:
				p, created := tab.GetOrCreate(k)
				if _, ok := ref[k]; created == ok {
					t.Fatalf("GetOrCreate(%d): created=%v, ref has=%v", k, created, ok)
				}
				if created && *p != 0 {
					t.Fatalf("GetOrCreate(%d) created a nonzero value %d", k, *p)
				}
				*p = uint16(op)
				ref[k] = uint16(op)
			case 2:
				p := tab.Lookup(k)
				want, ok := ref[k]
				if (p != nil) != ok || (ok && *p != want) {
					t.Fatalf("Lookup(%d) mismatch", k)
				}
			case 3:
				// Continue on a copy: into the spare, which holds the
				// table as it was at the previous copy (stale keys,
				// extra pages) plus one key of its own.
				spare.Put(k, uint16(op))
				tab, spare = tab.CopyInto(spare), tab
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("Len = %d, ref %d", tab.Len(), len(ref))
		}
		var last uint64
		n := 0
		tab.Range(func(k uint64, v *uint16) bool {
			if n > 0 && k <= last {
				t.Fatalf("Range not ascending: %d after %d", k, last)
			}
			if want, ok := ref[k]; !ok || *v != want {
				t.Fatalf("Range(%d) = %d, ref (%d, %v)", k, *v, want, ok)
			}
			last = k
			n++
			return true
		})
		if n != len(ref) {
			t.Fatalf("Range visited %d, ref %d", n, len(ref))
		}
	})
}

// TestResetMatchesNew resets a table holding keys in several pages and
// past maxDirect: it must be indistinguishable from New — no key
// present, zero from GetOrCreate of every old key — and, refilled, from
// a fresh table given the same writes.
func TestResetMatchesNew(t *testing.T) {
	keys := []uint64{0, 1, 63, 64, 511, 512, 5000, 1 << 20, maxDirect + 3, maxDirect + 1<<40}
	tab := New[uint64]()
	for _, k := range keys {
		tab.Put(k, ^k)
	}
	old := tab.Lookup(5000)
	tab.Reset()
	assertSameTable(t, tab, New[uint64](), keys)
	if *old != 0 {
		t.Fatalf("a pointer taken before Reset reads %d, want a zeroed slot", *old)
	}
	for _, k := range keys {
		p, created := tab.GetOrCreate(k)
		if !created || *p != 0 {
			t.Fatalf("GetOrCreate(%d) after Reset = %d created=%v, want fresh zero", k, *p, created)
		}
	}
	tab.Reset()
	fresh := New[uint64]()
	for _, k := range []uint64{2, 600, 5001, maxDirect + 3} {
		tab.Put(k, k+1)
		fresh.Put(k, k+1)
	}
	assertSameTable(t, tab, fresh, keys)
}
