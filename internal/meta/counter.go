// Package meta implements the security metadata stores of the memory
// controller: split counters (major page counter + per-block minor
// counters) and per-block MACs. Both are functional models — they hold
// real values that the recovery and attack experiments verify — with
// cacheability handled by mem.Cache instances keyed on metadata line
// addresses.
package meta

import (
	"encoding/binary"
	"fmt"

	"secpb/internal/addr"
	"secpb/internal/ptable"
)

// MinorBits is the width of a minor (per-block) counter. The paper's
// SecPB entry carries an 8-bit counter field.
const MinorBits = 8

// minorMax is the largest minor counter value before overflow.
const minorMax = 1<<MinorBits - 1

// CounterLine is the split-counter line for one 4KB encryption page: a
// major counter shared by the page and one minor counter per block.
type CounterLine struct {
	Major  uint64
	Minors [addr.BlocksPerPage]uint8
}

// Value returns the combined encryption counter for the block at the
// given in-page offset.
func (cl *CounterLine) Value(offset int) uint64 {
	return cl.Major<<MinorBits | uint64(cl.Minors[offset])
}

// LineBytesLen is the serialized size of a CounterLine.
const LineBytesLen = 8 + addr.BlocksPerPage

// PutBytes serializes the line into buf, which must be at least
// LineBytesLen long. Hot-path callers (the BMT walk on every drain) use
// it with a reusable scratch buffer to avoid a per-walk allocation.
func (cl *CounterLine) PutBytes(buf []byte) {
	binary.LittleEndian.PutUint64(buf, cl.Major)
	copy(buf[8:], cl.Minors[:])
}

// AppendBytes appends the line's serialization to dst and returns the
// extended slice. Replay loops that feed many lines into a BMT batch
// update use it with one reusable scratch buffer instead of allocating
// per line.
func (cl *CounterLine) AppendBytes(dst []byte) []byte {
	var buf [LineBytesLen]byte
	cl.PutBytes(buf[:])
	return append(dst, buf[:]...)
}

// Bytes serializes the line for hashing as a BMT leaf.
func (cl *CounterLine) Bytes() []byte {
	return cl.AppendBytes(make([]byte, 0, LineBytesLen))
}

// CounterStore holds the split counters for the whole PM, created lazily
// (absent pages have all-zero counters). Lines live in a paged
// direct-index table keyed by page number, so the per-store counter
// touch is a radix lookup rather than a map probe; line pointers stay
// valid for the store's lifetime.
type CounterStore struct {
	lines *ptable.Table[CounterLine]
	// overflows counts minor-counter overflows (page re-encryptions).
	overflows uint64
}

// NewCounterStore returns an empty store.
func NewCounterStore() *CounterStore {
	return &CounterStore{lines: ptable.New[CounterLine]()}
}

// Reset empties the store in place, leaving it observationally equal to
// NewCounterStore: no counter line and no overflow. The line pages are
// kept for the next image.
func (cs *CounterStore) Reset() {
	cs.lines.Reset()
	cs.overflows = 0
}

// Line returns the counter line for a page, creating it if absent.
func (cs *CounterStore) Line(page uint64) *CounterLine {
	cl, _ := cs.lines.GetOrCreate(page)
	return cl
}

// Peek returns the counter line if present, without creating it.
func (cs *CounterStore) Peek(page uint64) (*CounterLine, bool) {
	return cs.lines.Get(page)
}

// Value returns the block's current encryption counter.
func (cs *CounterStore) Value(b addr.Block) uint64 {
	return cs.Line(b.Page()).Value(b.PageOffset())
}

// Increment bumps the block's minor counter, handling overflow by
// incrementing the major counter and resetting the page's minors (a page
// re-encryption event). It returns the new counter value and whether an
// overflow occurred; on overflow the caller must re-encrypt every block
// of the page under its new counter.
func (cs *CounterStore) Increment(b addr.Block) (newValue uint64, overflow bool) {
	cl := cs.Line(b.Page())
	off := b.PageOffset()
	if cl.Minors[off] == minorMax {
		cl.Major++
		for i := range cl.Minors {
			cl.Minors[i] = 0
		}
		cl.Minors[off] = 1
		cs.overflows++
		return cl.Value(off), true
	}
	cl.Minors[off]++
	return cl.Value(off), false
}

// WouldOverflow reports whether the next Increment of the block's minor
// counter would overflow. Callers that must re-encrypt the page before
// the counters reset (the memory controller) check this first.
func (cs *CounterStore) WouldOverflow(b addr.Block) bool {
	cl := cs.lines.Lookup(b.Page())
	return cl != nil && cl.Minors[b.PageOffset()] == minorMax
}

// ForceMajorRollover advances the page's major counter and zeroes all
// minors — the counter-reset half of a page re-encryption. It counts as
// an overflow event.
func (cs *CounterStore) ForceMajorRollover(page uint64) {
	cl := cs.Line(page)
	cl.Major++
	for i := range cl.Minors {
		cl.Minors[i] = 0
	}
	cs.overflows++
}

// Overflows returns the number of page re-encryption events so far.
func (cs *CounterStore) Overflows() uint64 { return cs.overflows }

// Pages returns the number of counter lines materialized.
func (cs *CounterStore) Pages() int { return cs.lines.Len() }

// Snapshot deep-copies the store (used to model the persisted PM image
// at a crash point).
func (cs *CounterStore) Snapshot() *CounterStore { return cs.SnapshotInto(nil) }

// SnapshotInto is Snapshot into a recycled store, reusing dst's counter
// pages; a nil dst allocates.
func (cs *CounterStore) SnapshotInto(dst *CounterStore) *CounterStore {
	if dst == nil {
		dst = &CounterStore{}
	}
	dst.lines = cs.lines.CopyInto(dst.lines)
	dst.overflows = cs.overflows
	return dst
}

// RangeLines calls fn for every materialized counter line in ascending
// page order (deterministic traversal for audits and recovery replay).
func (cs *CounterStore) RangeLines(fn func(page uint64, cl *CounterLine) bool) {
	cs.lines.Range(fn)
}

// Tamper overwrites the stored minor counter of a block — an attack
// primitive used by the integrity tests. It reports an error if the
// page has no materialized counters.
func (cs *CounterStore) Tamper(b addr.Block, minor uint8) error {
	cl := cs.lines.Lookup(b.Page())
	if cl == nil {
		return fmt.Errorf("meta: no counters for page %d", b.Page())
	}
	cl.Minors[b.PageOffset()] = minor
	return nil
}

// LineAddr returns the pseudo-address used to key counter lines into a
// mem.Cache (one 64B line per page).
func LineAddr(page uint64) uint64 { return page << addr.BlockShift }
