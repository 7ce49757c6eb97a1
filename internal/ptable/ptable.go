// Package ptable provides a two-level, lazily-allocated direct-index
// table over dense uint64 keys — a page-table layout for the simulator's
// state tables (the engine's plaintext memory image, the split-counter
// and MAC stores, the PM device image). The address streams those tables
// see are dense block/page indices, so a radix lookup replaces the
// hash-and-probe a Go map pays on every load, store and counter touch
// while keeping deterministic, key-ordered traversal for snapshots,
// audits and recovery replay.
//
// Layout: a directory of lazily-allocated pages, each holding 2^PageBits
// values plus a presence bitmap. Pages are allocated on first touch of
// any key they cover (slab behaviour: one allocation covers the
// surrounding 2^PageBits keys), and value storage never moves, so
// pointers returned by Lookup and GetOrCreate stay valid for the
// table's lifetime. Keys at or above the direct-index bound fall back
// to an overflow map, so arbitrary (fuzzed or adversarial) keys cost
// bounded memory instead of a proportionally sized directory.
//
// Table is not safe for concurrent use; like the rest of the simulator
// state it is confined to one simulation goroutine.
package ptable

import (
	"math/bits"
	"slices"
)

const (
	// PageBits is log2 of the number of values per page. 512 values per
	// page keeps a page of 64-byte blocks at 32KB — large enough to
	// amortize allocation, small enough that sparse key ranges do not
	// waste much.
	PageBits = 9
	pageLen  = 1 << PageBits
	pageMask = pageLen - 1
	// bitmap words per page (64 presence bits per word).
	bmWords = pageLen / 64

	// maxDirect bounds the direct-indexed key range: the directory for
	// it tops out at 2^19 pointers (4MB), far above any real block or
	// page index the simulator produces (a 2^28 block index is a 16GB
	// physical address). Larger keys go to the overflow map.
	maxDirect = uint64(1) << 28
)

// page holds one directory leaf: the values and their presence bitmap.
type page[T any] struct {
	present [bmWords]uint64
	vals    [pageLen]T
}

// dropAbsent zeroes the values p holds at slots outside keep and clears
// their presence bits.
func (p *page[T]) dropAbsent(keep *[bmWords]uint64) {
	var zero T
	for w, word := range p.present {
		for stale := word &^ keep[w]; stale != 0; stale &= stale - 1 {
			p.vals[w<<6+bits.TrailingZeros64(stale)] = zero
		}
		p.present[w] &= keep[w]
	}
}

// Table is the two-level direct-index table. The zero value is not
// ready; use New.
type Table[T any] struct {
	dir []*page[T]
	// used lists the directory indices of allocated pages in ascending
	// order, so traversal and copying cost the allocated pages rather
	// than the directory's span (a footprint at a high address has a
	// long, almost entirely nil directory).
	used     []int
	overflow map[uint64]*T
	n        int
}

// New returns an empty table.
func New[T any]() *Table[T] {
	return &Table[T]{}
}

// Len returns the number of present keys.
func (t *Table[T]) Len() int { return t.n }

// Lookup returns a pointer to the value for key, or nil if the key was
// never created. The pointer stays valid for the table's lifetime.
func (t *Table[T]) Lookup(key uint64) *T {
	if key < maxDirect {
		d := key >> PageBits
		if d < uint64(len(t.dir)) {
			if p := t.dir[d]; p != nil {
				i := key & pageMask
				if p.present[i>>6]&(1<<(i&63)) != 0 {
					return &p.vals[i]
				}
			}
		}
		return nil
	}
	return t.overflow[key]
}

// Get returns the value pointer and whether the key is present.
func (t *Table[T]) Get(key uint64) (*T, bool) {
	v := t.Lookup(key)
	return v, v != nil
}

// GetOrCreate returns the value pointer for key, creating a zero value
// (and marking the key present) if absent. created reports whether this
// call performed the creation.
func (t *Table[T]) GetOrCreate(key uint64) (v *T, created bool) {
	if key >= maxDirect {
		if p, ok := t.overflow[key]; ok {
			return p, false
		}
		if t.overflow == nil {
			t.overflow = make(map[uint64]*T)
		}
		p := new(T)
		t.overflow[key] = p
		t.n++
		return p, true
	}
	d := key >> PageBits
	if d >= uint64(len(t.dir)) {
		t.dir = append(t.dir, make([]*page[T], int(d)+1-len(t.dir))...)
	}
	p := t.dir[d]
	if p == nil {
		p = t.addPage(int(d))
	}
	i := key & pageMask
	if p.present[i>>6]&(1<<(i&63)) != 0 {
		return &p.vals[i], false
	}
	p.present[i>>6] |= 1 << (i & 63)
	t.n++
	return &p.vals[i], true
}

// addPage allocates the page at directory index d, which must be in
// range and empty.
func (t *Table[T]) addPage(d int) *page[T] {
	p := new(page[T])
	t.dir[d] = p
	i, _ := slices.BinarySearch(t.used, d)
	t.used = slices.Insert(t.used, i, d)
	return p
}

// Octet returns a view of the eight values covering keys
// [base, base+8) together with their presence bits (bit i for
// base+i), for an 8-aligned base in the direct-indexed range. An
// 8-aligned run of eight keys never straddles a page or a bitmap
// word, so one directory walk serves all eight — the BMT sweep reads
// a node's children this way instead of probing per key. ok=false
// means the range is outside the direct-indexed bound and the caller
// must fall back to per-key lookups; ok=true with a nil slice means
// the covering page was never allocated (no key present).
func (t *Table[T]) Octet(base uint64) (vals []T, present uint8, ok bool) {
	if base >= maxDirect || base&7 != 0 {
		return nil, 0, false
	}
	d := base >> PageBits
	if d < uint64(len(t.dir)) {
		if p := t.dir[d]; p != nil {
			i := base & pageMask
			return p.vals[i : i+8 : i+8], uint8(p.present[i>>6] >> (i & 63)), true
		}
	}
	return nil, 0, true
}

// Put sets the value for key, creating it if absent.
func (t *Table[T]) Put(key uint64, v T) {
	p, _ := t.GetOrCreate(key)
	*p = v
}

// Range calls fn for every present key in ascending key order, stopping
// early if fn returns false. Mutating present values through the passed
// pointer is allowed; creating keys during iteration is not.
func (t *Table[T]) Range(fn func(key uint64, v *T) bool) {
	for _, d := range t.used {
		p := t.dir[d]
		base := uint64(d) << PageBits
		for w, word := range p.present {
			for word != 0 {
				i := w<<6 + bits.TrailingZeros64(word)
				if !fn(base+uint64(i), &p.vals[i]) {
					return
				}
				word &= word - 1 // clear lowest set bit
			}
		}
	}
	if len(t.overflow) == 0 {
		return
	}
	keys := make([]uint64, 0, len(t.overflow))
	for k := range t.overflow {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if !fn(k, t.overflow[k]) {
			return
		}
	}
}

// Keys returns every present key in ascending order.
func (t *Table[T]) Keys() []uint64 {
	out := make([]uint64, 0, t.n)
	t.Range(func(k uint64, _ *T) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Reset empties the table in place and keeps its pages: every present
// slot is zeroed and its presence bit cleared, and the overflow map is
// emptied. Afterwards the table is observationally identical to New():
// Len is zero, no key is present, and GetOrCreate of any key yields a
// zero value. Pointers previously obtained for direct-indexed keys now
// address zeroed absent slots.
func (t *Table[T]) Reset() {
	var none [bmWords]uint64
	for _, d := range t.used {
		t.dir[d].dropAbsent(&none)
	}
	clear(t.overflow)
	t.n = 0
}

// Clone deep-copies the table (values are copied by assignment).
func (t *Table[T]) Clone() *Table[T] { return t.CopyInto(nil) }

// CopyInto makes dst a deep copy of t and returns it; a nil dst
// allocates a fresh table, which is what Clone does. The copy reuses
// dst's pages: only t's present slots are copied in, and the slots dst
// held that t does not are zeroed, so a recycled destination costs what
// the present data costs rather than a page allocation and full page
// copy per page. Pages dst holds where t has none stay allocated but
// empty, ready for dst's next GetOrCreate or CopyInto. Afterwards dst
// is observationally identical to t.Clone(): Len, Lookup, Range, Keys,
// the values and presence bits of Octet, and a zero value from
// GetOrCreate of any absent key. Pointers previously obtained from dst
// now address t's values at the same keys, or zeroed absent slots.
func (t *Table[T]) CopyInto(dst *Table[T]) *Table[T] {
	if dst == nil {
		dst = &Table[T]{}
	}
	if len(dst.dir) < len(t.dir) {
		dst.dir = append(dst.dir, make([]*page[T], len(t.dir)-len(dst.dir))...)
	}
	var none [bmWords]uint64
	for _, d := range dst.used {
		if d >= len(t.dir) || t.dir[d] == nil {
			dst.dir[d].dropAbsent(&none)
		}
	}
	for _, d := range t.used {
		sp, dp := t.dir[d], dst.dir[d]
		if dp == nil {
			dp = dst.addPage(d)
		}
		dp.dropAbsent(&sp.present)
		for w, word := range sp.present {
			for ; word != 0; word &= word - 1 {
				i := w<<6 + bits.TrailingZeros64(word)
				dp.vals[i] = sp.vals[i]
			}
		}
		dp.present = sp.present
	}
	for k := range dst.overflow {
		if _, ok := t.overflow[k]; !ok {
			delete(dst.overflow, k)
		}
	}
	for k, v := range t.overflow {
		if p, ok := dst.overflow[k]; ok {
			*p = *v
			continue
		}
		if dst.overflow == nil {
			dst.overflow = make(map[uint64]*T, len(t.overflow))
		}
		dup := *v
		dst.overflow[k] = &dup
	}
	dst.n = t.n
	return dst
}
