package pb

import (
	"bytes"
	"testing"

	"secpb/internal/addr"
)

// FuzzBufferModel differentially fuzzes the open-addressed Fibonacci
// index against the map-based reference model. The script is decoded
// into write/drain/remove operations with a deliberate delete bias:
// backward-shift deletion is the index's subtlest path, and small
// capacities (down to 1, i.e. a 4-slot table) make probe wraparound at
// the table's top edge a routine event rather than a corner case.
func FuzzBufferModel(f *testing.F) {
	// Delete-heavy churn: allocate and immediately remove, cycling
	// blocks so backward shifts repeatedly compact probe chains.
	churn := make([]byte, 0, 96)
	for i := 0; i < 16; i++ {
		churn = append(churn, 7, byte(i), byte(i*3)) // write block i
		churn = append(churn, 1, byte(i), 0)         // remove block i
	}
	f.Add(uint8(0), churn) // capacity 1: 4-slot table, constant wraparound
	f.Add(uint8(3), churn)

	// Fill far past capacity, then drain dry: exercises ErrFull and the
	// FIFO skip-list of already-removed blocks.
	fill := make([]byte, 0, 120)
	for i := 0; i < 24; i++ {
		fill = append(fill, 7, byte(i*5), byte(i))
	}
	for i := 0; i < 16; i++ {
		fill = append(fill, 0, 0, 0) // drain oldest
	}
	f.Add(uint8(7), fill)

	// Interleaved remove/write on colliding low blocks.
	mix := []byte{7, 0, 1, 7, 1, 2, 7, 2, 3, 1, 1, 0, 7, 3, 4, 1, 0, 0, 7, 4, 5, 0, 0, 0}
	f.Add(uint8(1), mix)
	f.Add(uint8(31), bytes.Repeat(mix, 4))

	f.Fuzz(func(t *testing.T, capSel uint8, script []byte) {
		capacity := 1 + int(capSel)%32
		impl, err := New[noExt](capacity, 0.75, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefBuffer(capacity)
		const blocks = 48 // > max capacity, so full-buffer and collision paths both run

		for i := 0; i+2 < len(script); i += 3 {
			op, bsel, vb := script[i], script[i+1], script[i+2]
			b := addr.FromIndex(uint64(bsel) % blocks)
			switch op % 8 {
			case 0: // drain oldest
				wantBlock, wantData, wantOK := ref.drainOldest()
				e := impl.DrainOldest()
				if (e != nil) != wantOK {
					t.Fatalf("step %d: drain presence %v want %v", i, e != nil, wantOK)
				}
				if e != nil && (e.Block != wantBlock || e.Data != wantData) {
					t.Fatalf("step %d: drained %#x, reference %#x", i, e.Block, wantBlock)
				}
			case 1, 2, 3: // remove (delete-heavy: 3 of 8 opcodes)
				var wantData [addr.BlockBytes]byte
				if d, ok := ref.data[b]; ok {
					wantData = *d
				}
				wantOK := ref.remove(b)
				e := impl.Remove(b)
				if (e != nil) != wantOK {
					t.Fatalf("step %d: remove %#x presence %v want %v", i, b, e != nil, wantOK)
				}
				if e != nil && (e.Block != b || e.Data != wantData) {
					t.Fatalf("step %d: removed entry for %#x corrupt", i, b)
				}
			default: // write
				size := 1 << (vb & 3)
				off := (int(vb>>2) * size) % (addr.BlockBytes - size + 1)
				val := uint64(vb) * 0x0101010101010101
				wantAlloc, wantFull := ref.write(b, off, size, val)
				e, gotAlloc, err := impl.WriteInit(0, b, off, size, val, nil)
				if wantFull {
					if err == nil {
						t.Fatalf("step %d: write into full buffer accepted", i)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if gotAlloc != wantAlloc {
					t.Fatalf("step %d: allocated=%v want %v", i, gotAlloc, wantAlloc)
				}
				if e.Data != *ref.data[b] {
					t.Fatalf("step %d: data mismatch for %#x", i, b)
				}
			}
			if impl.Len() != len(ref.data) {
				t.Fatalf("step %d: occupancy %d want %d", i, impl.Len(), len(ref.data))
			}
			// A walk after every step: its marks must survive the
			// slot shifts of the deletions in between.
			if got := len(entries(impl)); got != len(ref.data) {
				t.Fatalf("step %d: walk visited %d entries, reference holds %d", i, got, len(ref.data))
			}
		}

		// Final cross-check: both directions of the block set, via the
		// index (Lookup) and via the walk.
		for b, want := range ref.data {
			e := impl.Lookup(b)
			if e == nil {
				t.Fatalf("block %#x in reference but not in index", b)
			}
			if e.Data != *want {
				t.Fatalf("block %#x: final data mismatch", b)
			}
		}
		walked := entries(impl)
		if got := len(walked); got != len(ref.data) {
			t.Fatalf("walk visited %d entries, reference %d", got, len(ref.data))
		}
		for _, e := range walked {
			if _, ok := ref.data[e.Block]; !ok {
				t.Fatalf("block %#x in buffer but not in reference", e.Block)
			}
		}
		// The walk's order is the crash-drain order.
		for k, want := range walked {
			if e := impl.DrainOldest(); e != want {
				t.Fatalf("drain %d: got %p, walk visited %p (block %#x) there", k, e, want, want.Block)
			}
		}
	})
}
