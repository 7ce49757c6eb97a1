// Package pb implements the battery-backed persist buffer of BBB
// (Alshboul et al., HPCA'21): a small per-core coalescing buffer that is
// the point of persistency. Stores enter the buffer in parallel with the
// L1D; blocks drain to the memory controller when a high watermark is
// reached (until a low watermark) or, on a crash, entirely on battery.
//
// The buffer is generic over a per-entry extension payload so the SecPB
// of internal/core can attach its security-metadata fields (O, Dc, C, B,
// M and their valid bits) without duplicating the coalescing mechanics.
package pb

import (
	"encoding/binary"
	"errors"
	"fmt"

	"secpb/internal/addr"
)

// ErrFull reports that the buffer cannot accept a new block until an
// entry drains.
var ErrFull = errors.New("pb: buffer full")

// Entry is one persist-buffer slot: a 64B data block plus bookkeeping
// and the caller's extension payload.
type Entry[E any] struct {
	Block addr.Block
	Data  [addr.BlockBytes]byte
	// ASID tags the owning process's address space, enabling the
	// drain-process policy for application crashes (Section III.B).
	// The drain-all policy ignores it.
	ASID   uint16
	Writes int    // stores coalesced into this entry (drives NWPE)
	Seq    uint64 // allocation sequence for FIFO draining
	// AllocCycle is the simulation cycle at which the entry reached the
	// point of persistency (stamped by the owning engine; zero when the
	// caller keeps no clock). It feeds the battery-exposure histogram.
	AllocCycle uint64
	Ext        E
}

// Buffer is a coalescing persist buffer with watermark-based draining.
type Buffer[E any] struct {
	capacity int
	hi, lo   int      // watermark entry counts
	idx      index[E] // block → resident entry
	// fifo holds allocation order (oldest first) from fifoHead onward;
	// the consumed prefix is compacted away periodically so the slice
	// reuses its capacity at steady state instead of growing (and
	// triggering GC) once per drain.
	fifo     []addr.Block
	fifoHead int
	seq      uint64

	// free recycles drained entries the owner explicitly Released:
	// allocation churn (one ~400-byte entry per drain at steady state)
	// was the engine store path's last per-op heap traffic.
	free []*Entry[E]

	// lastBlock/lastEntry memoize the most recent CoalesceWrite index
	// hit: consecutive stores overwhelmingly land in the block just
	// written, so the repeat skips the hash probe. Every removal path
	// funnels through recordDrain, which clears the memo when the
	// memoized entry leaves — a non-nil lastEntry is therefore always
	// the resident entry for lastBlock (resident entries never change
	// block, and freelist reuse requires a prior removal).
	lastBlock addr.Block
	lastEntry *Entry[E]

	allocs uint64
	writes uint64
	drains uint64
	// peak is the high-water occupancy (entries resident at once) over
	// the buffer's lifetime — the measured battery exposure a multi-core
	// sizing study compares against the all-slots-full worst case.
	peak int
	// Writes-per-drained-entry accumulators (NWPE). The per-drain sample
	// list this replaces grew without bound and was only ever averaged.
	drainWriteSum uint64
	drainWriteCnt uint64
}

// index is the buffer's block→entry lookup structure: a fixed-size
// open-addressed table (linear probing, backward-shift deletion) sized
// at a quarter load for the buffer's bounded capacity. Every store
// probes it once (twice on allocation) and every drain deletes from it,
// which made the previous map's hashing and bucket chasing the last
// per-op map cost on the engine's store path. At ≤25% load a probe is
// almost always a single cache line.
type index[E any] struct {
	slots []idxSlot[E]
	mask  uint64
	shift uint // 64 - log2(len(slots)), for multiplicative hashing
	n     int
	// walked[i] is the last Walk pass that visited slot i's entry.
	// Deletion shifts slots without their marks, which is harmless: a
	// mark only means something during the pass that wrote it.
	walked []uint64
	pass   uint64
}

type idxSlot[E any] struct {
	key addr.Block
	e   *Entry[E] // nil marks an empty slot
}

func newIndex[E any](capacity int) index[E] {
	size, shift := 8, uint(61)
	for size < 4*capacity {
		size <<= 1
		shift--
	}
	return index[E]{
		slots:  make([]idxSlot[E], size),
		mask:   uint64(size - 1),
		shift:  shift,
		walked: make([]uint64, size),
	}
}

// home returns the block's preferred slot (Fibonacci hashing: the high
// multiplier bits are well mixed even for the sequential block numbers
// streaming workloads produce).
func (ix *index[E]) home(b addr.Block) uint64 {
	return (uint64(b) * 0x9E3779B97F4A7C15) >> ix.shift
}

func (ix *index[E]) get(b addr.Block) *Entry[E] {
	for i := ix.home(b); ; i = (i + 1) & ix.mask {
		s := &ix.slots[i]
		if s.e == nil {
			return nil
		}
		if s.key == b {
			return s.e
		}
	}
}

// find is get that also returns the slot holding the entry.
func (ix *index[E]) find(b addr.Block) (uint64, *Entry[E]) {
	for i := ix.home(b); ; i = (i + 1) & ix.mask {
		s := &ix.slots[i]
		if s.e == nil || s.key == b {
			return i, s.e
		}
	}
}

// put inserts an entry for a block the caller has verified absent. The
// table is never more than quarter full (capacity entries in ≥4×
// capacity slots), so the probe always terminates at an empty slot.
func (ix *index[E]) put(b addr.Block, e *Entry[E]) {
	i := ix.home(b)
	for ix.slots[i].e != nil {
		i = (i + 1) & ix.mask
	}
	ix.slots[i] = idxSlot[E]{key: b, e: e}
	ix.n++
}

// del removes and returns the entry for b (nil if absent), compacting
// the probe sequence by backward-shift deletion so no tombstones
// accumulate under the buffer's allocate/drain churn.
func (ix *index[E]) del(b addr.Block) *Entry[E] {
	i := ix.home(b)
	for {
		s := &ix.slots[i]
		if s.e == nil {
			return nil
		}
		if s.key == b {
			break
		}
		i = (i + 1) & ix.mask
	}
	e := ix.slots[i].e
	ix.n--
	for j := (i + 1) & ix.mask; ; j = (j + 1) & ix.mask {
		s := ix.slots[j]
		if s.e == nil {
			break
		}
		// s may fill the hole at i iff i lies on s's probe path, i.e.
		// the cyclic distance home→i does not exceed home→j.
		if (j-ix.home(s.key))&ix.mask >= (j-i)&ix.mask {
			ix.slots[i] = s
			i = j
		}
	}
	ix.slots[i] = idxSlot[E]{}
	return e
}

// New returns a buffer with the given capacity and watermark fractions
// (0 <= lo < hi <= 1).
func New[E any](capacity int, hiFrac, loFrac float64) (*Buffer[E], error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("pb: capacity %d must be positive", capacity)
	}
	if !(loFrac >= 0 && loFrac < hiFrac && hiFrac <= 1) {
		return nil, fmt.Errorf("pb: watermarks lo=%v hi=%v invalid", loFrac, hiFrac)
	}
	hi := int(hiFrac * float64(capacity))
	if hi < 1 {
		hi = 1
	}
	lo := int(loFrac * float64(capacity))
	return &Buffer[E]{
		capacity: capacity,
		hi:       hi,
		lo:       lo,
		idx:      newIndex[E](capacity),
	}, nil
}

// Len returns the number of occupied entries.
func (b *Buffer[E]) Len() int { return b.idx.n }

// PeakLen returns the buffer's high-water occupancy: the most entries
// ever resident at once (battery-sizing studies compare this measured
// exposure against the all-slots-full worst case).
func (b *Buffer[E]) PeakLen() int {
	if b.idx.n > b.peak {
		return b.idx.n
	}
	return b.peak
}

// Capacity returns the configured entry count.
func (b *Buffer[E]) Capacity() int { return b.capacity }

// Full reports whether no entry can be allocated.
func (b *Buffer[E]) Full() bool { return b.idx.n >= b.capacity }

// AboveHigh reports whether occupancy has reached the high watermark
// (draining should start).
func (b *Buffer[E]) AboveHigh() bool { return b.idx.n >= b.hi }

// AboveLow reports whether occupancy is above the low watermark
// (draining, once started, should continue).
func (b *Buffer[E]) AboveLow() bool { return b.idx.n > b.lo }

// Lookup returns the entry holding the block, or nil.
func (b *Buffer[E]) Lookup(block addr.Block) *Entry[E] {
	return b.idx.get(block)
}

// WriteInit coalesces a store of size bytes of val at byte offset off
// within the block. If the block has no entry one is allocated, tagged
// with the allocating process's address space asid, and initialized
// from init, if non-nil (the block's current contents, since the
// buffer is memory-side and must merge partial writes; copied only on
// allocation); allocated reports this. A coalescing write does not
// re-tag the entry. WriteInit fails with ErrFull when allocation is
// needed but no space is left — the caller must drain first.
func (b *Buffer[E]) WriteInit(asid uint16, block addr.Block, off, size int, val uint64, init *[addr.BlockBytes]byte) (entry *Entry[E], allocated bool, err error) {
	if off < 0 || size <= 0 || size > 8 || off+size > addr.BlockBytes {
		return nil, false, fmt.Errorf("pb: invalid write off=%d size=%d", off, size)
	}
	e := b.idx.get(block)
	if e == nil {
		if b.Full() {
			return nil, false, ErrFull
		}
		if n := len(b.free); n > 0 {
			e, b.free = b.free[n-1], b.free[:n-1]
			e.Block, e.Seq, e.ASID = block, b.seq, asid
		} else {
			e = &Entry[E]{Block: block, Seq: b.seq, ASID: asid}
		}
		if init != nil {
			e.Data = *init
		}
		b.seq++
		b.idx.put(block, e)
		b.fifoPush(block)
		b.allocs++
		allocated = true
	}
	if size == 8 {
		binary.LittleEndian.PutUint64(e.Data[off:off+8], val)
	} else {
		for i := 0; i < size; i++ {
			e.Data[off+i] = byte(val >> (8 * i))
		}
	}
	e.Writes++
	b.writes++
	return e, allocated, nil
}

// CoalesceWrite coalesces a store into the block's resident entry and
// returns it — the hot-path subset of WriteInit for callers that
// handle allocation separately. It returns nil with no side effects
// when the block has no entry or the write parameters are invalid (the
// caller falls back to WriteInit, which allocates or reports the
// error), so one index probe serves as both the residency test and the
// coalescing write.
func (b *Buffer[E]) CoalesceWrite(block addr.Block, off, size int, val uint64) *Entry[E] {
	if off < 0 || size <= 0 || size > 8 || off+size > addr.BlockBytes {
		return nil
	}
	e := b.lastEntry
	if e == nil || b.lastBlock != block {
		e = b.idx.get(block)
		if e == nil {
			return nil
		}
		b.lastBlock, b.lastEntry = block, e
	}
	if size == 8 {
		binary.LittleEndian.PutUint64(e.Data[off:off+8], val)
	} else {
		for i := 0; i < size; i++ {
			e.Data[off+i] = byte(val >> (8 * i))
		}
	}
	e.Writes++
	b.writes++
	return e
}

// Insert adopts an entry migrated from another buffer (cache-coherence
// migration between per-core persist buffers). The entry keeps its data
// and extension payload but receives a new allocation sequence in this
// buffer. It fails with ErrFull when no slot is free and with an error
// if the block is already resident (replication is forbidden).
func (b *Buffer[E]) Insert(e *Entry[E]) error {
	if b.idx.get(e.Block) != nil {
		return fmt.Errorf("pb: block %#x already resident (replication forbidden)", uint64(e.Block))
	}
	if b.Full() {
		return ErrFull
	}
	e.Seq = b.seq
	b.seq++
	b.idx.put(e.Block, e)
	b.fifoPush(e.Block)
	b.allocs++
	return nil
}

// fifoPush appends a block to the allocation-order queue, compacting the
// consumed prefix first once it dominates the slice. Amortized O(1) with
// a bounded footprint: at steady state the same backing array is reused
// forever.
func (b *Buffer[E]) fifoPush(block addr.Block) {
	if b.idx.n > b.peak {
		b.peak = b.idx.n
	}
	if b.fifoHead > 0 && b.fifoHead*2 >= len(b.fifo) {
		n := copy(b.fifo, b.fifo[b.fifoHead:])
		b.fifo = b.fifo[:n]
		b.fifoHead = 0
	}
	b.fifo = append(b.fifo, block)
}

// recordDrain accumulates the NWPE sample for a removed entry.
func (b *Buffer[E]) recordDrain(e *Entry[E]) {
	if e == b.lastEntry {
		b.lastEntry = nil
	}
	b.drains++
	b.drainWriteSum += uint64(e.Writes)
	b.drainWriteCnt++
}

// DrainOldest removes and returns the oldest entry, or nil if empty.
func (b *Buffer[E]) DrainOldest() *Entry[E] {
	for b.fifoHead < len(b.fifo) {
		block := b.fifo[b.fifoHead]
		b.fifoHead++
		e := b.idx.del(block)
		if e == nil {
			continue // already removed (flush/invalidate)
		}
		b.recordDrain(e)
		return e
	}
	b.fifo = b.fifo[:0]
	b.fifoHead = 0
	return nil
}

// DrainOldestWhere removes and returns the oldest entry satisfying
// pred, or nil if none does. Non-matching entries keep their place —
// the drain-process policy drains one process's entries in allocation
// order without disturbing other processes' coalescing.
func (b *Buffer[E]) DrainOldestWhere(pred func(*Entry[E]) bool) *Entry[E] {
	for _, block := range b.fifo[b.fifoHead:] {
		e := b.idx.get(block)
		if e == nil || !pred(e) {
			continue
		}
		b.idx.del(block)
		b.recordDrain(e)
		return e
	}
	return nil
}

// Remove deletes a specific entry (coherence flush to another core, or
// a forced eviction) and returns it, or nil if absent. The FIFO keeps a
// stale reference that DrainOldest skips.
func (b *Buffer[E]) Remove(block addr.Block) *Entry[E] {
	e := b.idx.del(block)
	if e == nil {
		return nil
	}
	b.recordDrain(e)
	return e
}

// Walk calls fn on every resident entry, oldest first (crash drains
// preserve allocation order). A block removed and later re-allocated
// leaves a stale FIFO slot behind that resolves to the live entry, so
// each entry is visited only at its first live position — where
// DrainOldest would drain it. fn may modify an entry but must not add
// or remove any. Walk allocates nothing: a per-pass mark on the index
// slot, not a set, tells a repeat visit apart.
func (b *Buffer[E]) Walk(fn func(*Entry[E])) {
	ix := &b.idx
	ix.pass++
	for _, block := range b.fifo[b.fifoHead:] {
		i, e := ix.find(block)
		if e == nil || ix.walked[i] == ix.pass {
			continue
		}
		ix.walked[i] = ix.pass
		fn(e)
	}
}

// Release returns a drained entry to the buffer's free list for reuse by
// a later allocation. The caller asserts no reference to the entry (or
// anything it points into) survives the call: crash snapshots deep-copy
// entries, so the drain loop may release an entry as soon as its persist
// completes. Releasing is optional — unreleased entries are simply
// garbage collected.
func (b *Buffer[E]) Release(e *Entry[E]) {
	if e == nil || len(b.free) >= b.capacity {
		return
	}
	*e = Entry[E]{}
	b.free = append(b.free, e)
}

// Stats returns cumulative (allocations, writes, drains).
func (b *Buffer[E]) Stats() (allocs, writes, drains uint64) {
	return b.allocs, b.writes, b.drains
}

// NWPE returns the mean number of writes per drained entry — the
// coalescing statistic the paper reports. Entries still resident are
// not counted.
func (b *Buffer[E]) NWPE() float64 {
	if b.drainWriteCnt == 0 {
		return 0
	}
	return float64(b.drainWriteSum) / float64(b.drainWriteCnt)
}
