package meta

import (
	"fmt"

	"secpb/internal/addr"
	"secpb/internal/crypto"
	"secpb/internal/ptable"
)

// MACStore holds the per-block authentication tags persisted in PM.
// Tags are stored at full width (the SecPB entry's 512-bit M field);
// eight truncated tags share a 64B MAC line for cache/traffic
// accounting. Block indices are dense, so tags live in a paged
// direct-index table (presence in the table means the block was MAC'd).
type MACStore struct {
	tags *ptable.Table[[crypto.MACSize]byte]
}

// NewMACStore returns an empty store.
func NewMACStore() *MACStore {
	return &MACStore{tags: ptable.New[[crypto.MACSize]byte]()}
}

// Reset empties the store in place, leaving it observationally equal to
// NewMACStore. The tag pages are kept for the next image.
func (ms *MACStore) Reset() { ms.tags.Reset() }

// Put stores the tag for a block.
func (ms *MACStore) Put(b addr.Block, tag [crypto.MACSize]byte) {
	ms.tags.Put(b.Index(), tag)
}

// PutSlot returns the block's tag cell (creating it), so a batched MAC
// computation can write the tag in place instead of through a 64-byte
// value copy. The pointer stays valid for the store's lifetime.
func (ms *MACStore) PutSlot(b addr.Block) *[crypto.MACSize]byte {
	t, _ := ms.tags.GetOrCreate(b.Index())
	return t
}

// Get returns the stored tag; ok is false if the block was never MAC'd.
func (ms *MACStore) Get(b addr.Block) (tag [crypto.MACSize]byte, ok bool) {
	if t := ms.tags.Lookup(b.Index()); t != nil {
		return *t, true
	}
	return tag, false
}

// Verify recomputes nothing — it compares the stored tag with an
// expected tag computed by the caller's crypto engine and returns an
// error naming the block on mismatch.
func (ms *MACStore) Verify(b addr.Block, want [crypto.MACSize]byte) error {
	t := ms.tags.Lookup(b.Index())
	if t == nil {
		return fmt.Errorf("meta: block %#x has no MAC", b.Addr())
	}
	if *t != want {
		return fmt.Errorf("meta: MAC mismatch for block %#x", b.Addr())
	}
	return nil
}

// Len returns the number of blocks with tags.
func (ms *MACStore) Len() int { return ms.tags.Len() }

// Snapshot deep-copies the store.
func (ms *MACStore) Snapshot() *MACStore { return ms.SnapshotInto(nil) }

// SnapshotInto is Snapshot into a recycled store, reusing dst's tag
// pages; a nil dst allocates.
func (ms *MACStore) SnapshotInto(dst *MACStore) *MACStore {
	if dst == nil {
		dst = &MACStore{}
	}
	dst.tags = ms.tags.CopyInto(dst.tags)
	return dst
}

// Tamper flips one bit in a stored tag (attack primitive). It reports an
// error if the block has no tag.
func (ms *MACStore) Tamper(b addr.Block, bit int) error {
	t := ms.tags.Lookup(b.Index())
	if t == nil {
		return fmt.Errorf("meta: no MAC for block %#x", b.Addr())
	}
	t[(bit/8)%crypto.MACSize] ^= 1 << (bit % 8)
	return nil
}

// MACLineAddr returns the pseudo-address keying the block's MAC line
// into a mem.Cache.
func MACLineAddr(b addr.Block) uint64 { return b.MACLine() << addr.BlockShift }
