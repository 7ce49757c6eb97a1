package pb

import (
	"testing"

	"secpb/internal/addr"
	"secpb/internal/xrand"
)

// refBuffer is the executable specification of the persist buffer: a
// map of block → data plus an allocation-ordered list.
type refBuffer struct {
	capacity int
	data     map[addr.Block]*[addr.BlockBytes]byte
	order    []addr.Block
}

func newRefBuffer(capacity int) *refBuffer {
	return &refBuffer{capacity: capacity, data: map[addr.Block]*[addr.BlockBytes]byte{}}
}

func (r *refBuffer) write(block addr.Block, off, size int, val uint64) (allocated, full bool) {
	d, ok := r.data[block]
	if !ok {
		if len(r.data) >= r.capacity {
			return false, true
		}
		d = &[addr.BlockBytes]byte{}
		r.data[block] = d
		r.order = append(r.order, block)
		allocated = true
	}
	for i := 0; i < size; i++ {
		d[off+i] = byte(val >> (8 * i))
	}
	return allocated, false
}

func (r *refBuffer) drainOldest() (addr.Block, [addr.BlockBytes]byte, bool) {
	for len(r.order) > 0 {
		b := r.order[0]
		r.order = r.order[1:]
		if d, ok := r.data[b]; ok {
			delete(r.data, b)
			return b, *d, true
		}
	}
	return 0, [addr.BlockBytes]byte{}, false
}

func (r *refBuffer) remove(block addr.Block) bool {
	if _, ok := r.data[block]; ok {
		delete(r.data, block)
		return true
	}
	return false
}

func TestBufferMatchesReferenceModel(t *testing.T) {
	const capacity = 8
	impl, err := New[noExt](capacity, 0.75, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefBuffer(capacity)
	r := xrand.New(0xB0FFE2)
	const blocks = 20
	for step := 0; step < 30000; step++ {
		switch r.Intn(10) {
		case 0: // drain oldest
			wantBlock, wantData, wantOK := ref.drainOldest()
			e := impl.DrainOldest()
			if (e != nil) != wantOK {
				t.Fatalf("step %d: drain presence %v want %v", step, e != nil, wantOK)
			}
			if e != nil && (e.Block != wantBlock || e.Data != wantData) {
				t.Fatalf("step %d: drained %#x, reference %#x", step, e.Block, wantBlock)
			}
		case 1: // remove random block
			b := addr.FromIndex(uint64(r.Intn(blocks)))
			wantOK := ref.remove(b)
			e := impl.Remove(b)
			if (e != nil) != wantOK {
				t.Fatalf("step %d: remove presence %v want %v", step, e != nil, wantOK)
			}
		default: // write
			b := addr.FromIndex(uint64(r.Intn(blocks)))
			size := 1 << r.Intn(4)
			off := r.Intn(addr.BlockBytes-size+1) &^ (size - 1)
			val := r.Uint64()
			wantAlloc, wantFull := ref.write(b, off, size, val)
			e, gotAlloc, err := impl.WriteInit(0, b, off, size, val, nil)
			if wantFull {
				if err == nil {
					t.Fatalf("step %d: impl accepted write into full buffer", step)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if gotAlloc != wantAlloc {
				t.Fatalf("step %d: allocated=%v want %v", step, gotAlloc, wantAlloc)
			}
			if *ref.data[b] != e.Data {
				t.Fatalf("step %d: data mismatch for %#x", step, b)
			}
		}
		if impl.Len() != len(ref.data) {
			t.Fatalf("step %d: occupancy %d want %d", step, impl.Len(), len(ref.data))
		}
	}
}
