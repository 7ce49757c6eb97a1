// Package nvm models the persistent memory device and the memory
// controller that fronts it: the ADR write-pending queue, the crypto
// engine, the authoritative security-metadata state (split counters,
// MACs, BMT), and the volatile metadata caches.
//
// The device is functional — it stores real (ciphertext) bytes — so
// crash-recovery and tamper experiments operate on real state, while
// every operation also reports an event Cost the timing and energy
// models consume.
package nvm

import (
	"fmt"

	"secpb/internal/addr"
	"secpb/internal/fault"
	"secpb/internal/ptable"
	"secpb/internal/seal"
)

// PM is the byte-addressable persistent memory device, tracked at block
// granularity. Contents are whatever the controller writes: ciphertext
// under secure schemes, plaintext under the insecure baseline. The image
// lives in a paged direct-index table keyed by block index, so the
// drain-path write and fetch-path read are radix lookups, and traversal
// (Blocks, Snapshot) is deterministic in address order.
//
// The device optionally carries a media-fault injector (SetFault) and a
// bad-block table. The table maps logical block indices to spare
// physical cells past the device's addressable range: data stays keyed
// by logical index (so Blocks/Snapshot traversal is unchanged), and the
// remap only redirects which physical cell the fault model judges. The
// table is part of the NV image — Snapshot carries it, and its checksum
// is validated on Restore.
type PM struct {
	sizeBytes uint64
	data      *ptable.Table[[addr.BlockBytes]byte]
	reads     uint64
	writes    uint64

	flt    *fault.Injector       // nil = perfect media
	remap  *ptable.Table[uint64] // logical block index -> spare physical cell
	spares uint64                // spare cells handed out
	badSum uint64                // FNV-64a over the remap table contents
}

// NewPM returns an empty device of the given size.
func NewPM(sizeBytes uint64) *PM {
	return &PM{
		sizeBytes: sizeBytes,
		data:      ptable.New[[addr.BlockBytes]byte](),
	}
}

// Reset empties the device in place, leaving it observationally equal
// to a NewPM of the same size: no written block, zeroed access
// counters, an empty bad-block table with its checksum unsealed, and
// the fault injector disarmed. The block pages are kept for the next
// image.
func (p *PM) Reset() {
	p.data.Reset()
	p.reads, p.writes = 0, 0
	p.flt = nil
	p.remap = nil
	p.spares = 0
	p.badSum = 0
}

// SetFault arms (or, with nil, disarms) the media-fault injector.
func (p *PM) SetFault(in *fault.Injector) { p.flt = in }

// Fault returns the armed injector, nil for perfect media.
func (p *PM) Fault() *fault.Injector { return p.flt }

// Faulty reports whether a fault injector is armed.
func (p *PM) Faulty() bool { return p.flt != nil }

// phys returns the physical cell index backing a logical block index:
// itself, unless the block was remapped to a spare.
func (p *PM) phys(idx uint64) uint64 {
	if p.remap == nil {
		return idx
	}
	if s := p.remap.Lookup(idx); s != nil {
		return *s
	}
	return idx
}

// Write stores a block faithfully, bypassing the fault model. The
// controller uses it on the fault-free fast path; harnesses use it to
// build images directly.
func (p *PM) Write(b addr.Block, data [addr.BlockBytes]byte) {
	blk, _ := p.data.GetOrCreate(b.Index())
	*blk = data
	p.writes++
}

// StageBlock returns the device cell for b (creating it) and counts one
// write, without storing content — the zero-copy form of Write: the
// caller fills the cell in place. The pointer stays valid for the
// device's lifetime. Only the controller's staged-drain path (which
// guarantees the cell is materialized before any observation) uses it.
func (p *PM) StageBlock(b addr.Block) *[addr.BlockBytes]byte {
	blk, _ := p.data.GetOrCreate(b.Index())
	p.writes++
	return blk
}

// WriteAttempt stores a block through the fault model: the write may
// complete, silently fail (old contents remain), or tear after a prefix
// of the line. Callers pairing it with VerifyWrite implement the
// program-and-verify loop real PCM controllers use. With no injector
// armed it is exactly Write.
func (p *PM) WriteAttempt(b addr.Block, data *[addr.BlockBytes]byte) {
	idx := b.Index()
	if p.flt == nil {
		p.Write(b, *data)
		return
	}
	p.writes++
	ev, faulted := p.flt.OnWrite(p.phys(idx))
	if !faulted {
		blk, _ := p.data.GetOrCreate(idx)
		*blk = *data
		return
	}
	switch ev.Kind {
	case fault.WriteFail:
		// No cell latched; previous contents (or fresh zeros) remain.
	case fault.TornWrite:
		blk, _ := p.data.GetOrCreate(idx)
		copy(blk[:ev.Bytes], data[:ev.Bytes])
	}
}

// VerifyWrite is the controller's write-verify read-back: it reports
// whether the stored line matches want, without disturbing the fault
// stream (an immediate read-back leaves no window for rot) or the access
// counters (the caller accounts the read explicitly).
func (p *PM) VerifyWrite(b addr.Block, want *[addr.BlockBytes]byte) bool {
	blk := p.data.Lookup(b.Index())
	return blk != nil && *blk == *want
}

// Retire marks the logical block's current physical cell bad and remaps
// the block to a fresh spare cell past the addressable range. The stored
// contents are untouched (the caller rewrites them through the new
// cell); the bad-block table and its checksum update in place.
func (p *PM) Retire(b addr.Block) {
	if p.remap == nil {
		p.remap = ptable.New[uint64]()
	}
	spare := p.sizeBytes>>addr.BlockShift + p.spares
	p.spares++
	p.remap.Put(b.Index(), spare)
	p.badSum = p.badBlockSum()
}

// BadBlocks returns the number of remapped (retired) blocks.
func (p *PM) BadBlocks() int {
	if p.remap == nil {
		return 0
	}
	return p.remap.Len()
}

// badBlockSum hashes the remap table (FNV-64a over index/spare pairs in
// ascending order, plus the spare cursor).
func (p *PM) badBlockSum() uint64 {
	sum := seal.Offset
	if p.remap != nil {
		p.remap.Range(func(idx uint64, spare *uint64) bool {
			sum = seal.AddU64(seal.AddU64(sum, idx), *spare)
			return true
		})
	}
	return seal.AddU64(sum, p.spares)
}

// CheckBadBlocks validates the bad-block table against its stored
// checksum; Restore calls it so a corrupted snapshot surfaces as a typed
// error instead of silently redirecting blocks.
func (p *PM) CheckBadBlocks() error {
	if p.badSum == 0 && p.remap == nil && p.spares == 0 {
		return nil // never-retired device; the sum was never sealed
	}
	if got := p.badBlockSum(); got != p.badSum {
		return &CorruptStateError{
			Component: "bad-block table",
			Detail:    fmt.Sprintf("checksum %#x does not match stored %#x over %d entries", got, p.badSum, p.BadBlocks()),
		}
	}
	return nil
}

// CorruptBadBlockTable damages the remap table without resealing its
// checksum (test hook for the Restore validation path).
func (p *PM) CorruptBadBlockTable() error {
	if p.remap == nil || p.remap.Len() == 0 {
		return fmt.Errorf("nvm: no bad-block entries to corrupt")
	}
	p.remap.Range(func(idx uint64, spare *uint64) bool {
		*spare ^= 1
		return false
	})
	return nil
}

// Read loads a block; absent blocks read as zero (fresh media). With a
// fault injector armed, the read may observe a fresh bit-rot flip; rot
// is persistent — the stored line is what drifted, so the flip is
// applied to the device image, not just the returned copy.
func (p *PM) Read(b addr.Block) [addr.BlockBytes]byte {
	p.reads++
	blk := p.data.Lookup(b.Index())
	if blk == nil {
		return [addr.BlockBytes]byte{}
	}
	if p.flt != nil {
		if ev, rotted := p.flt.OnRead(p.phys(b.Index())); rotted {
			blk[ev.Bit/8] ^= 1 << (ev.Bit % 8)
		}
	}
	return *blk
}

// Decay runs one at-rest bit-rot pass over every written block (the
// dead time between a crash and recovery, when no controller is
// scrubbing), returning the blocks that rotted in address order. A
// device with no injector (or zero rot rate) never decays.
func (p *PM) Decay() []addr.Block {
	if p.flt == nil {
		return nil
	}
	var rotted []addr.Block
	p.data.Range(func(idx uint64, blk *[addr.BlockBytes]byte) bool {
		if ev, ok := p.flt.Decay(p.phys(idx)); ok {
			blk[ev.Bit/8] ^= 1 << (ev.Bit % 8)
			rotted = append(rotted, addr.FromIndex(idx))
		}
		return true
	})
	return rotted
}

// Peek returns the block without touching access counters or the fault
// stream, and whether it was ever written.
func (p *PM) Peek(b addr.Block) ([addr.BlockBytes]byte, bool) {
	if blk := p.data.Lookup(b.Index()); blk != nil {
		return *blk, true
	}
	return [addr.BlockBytes]byte{}, false
}

// Blocks returns the addresses of all written blocks in ascending
// address order.
func (p *PM) Blocks() []addr.Block {
	return p.AppendBlocks(make([]addr.Block, 0, p.data.Len()))
}

// AppendBlocks appends the addresses of all written blocks to dst in
// ascending address order and returns the extended slice, so a caller
// that lists the image repeatedly can reuse one buffer.
func (p *PM) AppendBlocks(dst []addr.Block) []addr.Block {
	p.data.Range(func(idx uint64, _ *[addr.BlockBytes]byte) bool {
		dst = append(dst, addr.FromIndex(idx))
		return true
	})
	return dst
}

// Len returns the number of written blocks.
func (p *PM) Len() int { return p.data.Len() }

// Stats returns cumulative (reads, writes).
func (p *PM) Stats() (reads, writes uint64) { return p.reads, p.writes }

// Snapshot deep-copies the device image, including the bad-block table
// and its checksum (both are NV state). The fault injector is not
// carried over: a snapshot is an inert captured image, and sharing the
// live injector's decision stream would make the donor device's future
// faults depend on what the snapshot's consumer reads. Re-arm with
// SetFault if the restored device should keep degrading.
func (p *PM) Snapshot() *PM { return p.SnapshotInto(nil) }

// SnapshotInto is Snapshot into a recycled device: dst's block pages are
// reused (ptable.Table.CopyInto) and dst ends up identical to a fresh
// Snapshot, fault injector disarmed. A nil dst allocates.
func (p *PM) SnapshotInto(dst *PM) *PM {
	if dst == nil {
		dst = &PM{}
	}
	dst.sizeBytes = p.sizeBytes
	dst.reads, dst.writes = p.reads, p.writes
	dst.data = p.data.CopyInto(dst.data)
	if p.remap != nil {
		dst.remap = p.remap.CopyInto(dst.remap)
	} else {
		dst.remap = nil
	}
	dst.flt = nil
	dst.spares = p.spares
	dst.badSum = p.badSum
	return dst
}

// Tamper flips one bit of a stored block (attack primitive).
func (p *PM) Tamper(b addr.Block, bit int) error {
	blk := p.data.Lookup(b.Index())
	if blk == nil {
		return fmt.Errorf("nvm: block %#x not present", b.Addr())
	}
	blk[(bit/8)%addr.BlockBytes] ^= 1 << (bit % 8)
	return nil
}
