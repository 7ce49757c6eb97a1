// Package mem models the volatile memory-side structures: set-associative
// caches with LRU replacement (used for the L1/L2/L3 data hierarchy and
// the memory controller's metadata caches) and the core's store buffer.
//
// Caches here are timing/state models: they track which blocks are
// resident, not block contents (functional data lives in the persist
// buffer and the NVM model). Blocks written through a persist buffer are
// marked persist-dirty: because the PB guarantees they reach PM, their
// eviction is silently discarded like a clean block (paper Section IV.C).
package mem

import (
	"fmt"
	"math/bits"

	"secpb/internal/config"
)

// Line states, packed into the low bits of a line's word. Block
// addresses are BlockBytes-aligned, so those bits are otherwise zero.
// persistDirty includes the dirty bit, so a plain write (w |= dirty)
// never downgrades a persist-dirty line.
const (
	clean        = 0
	dirty        = 1 // must be written back on eviction
	persistDirty = 3 // dirty but persisted via PB: silently droppable
	stateMask    = 3
)

// Cache is a set-associative cache with true-LRU replacement.
//
// Each set is one row of ways words, kept in recency order: way 0 is
// the most recently used line and way valid[s]-1 the least. A word is
// the line's block address with its state in the low two bits. A probe
// scans only the valid prefix of one row; a hit moves the line to way 0
// (a hit at way 0 writes nothing beyond a state upgrade), and a fill
// shifts the prefix right by one and writes the new line at way 0, so a
// full set's LRU victim is always its last way, found without a scan.
// Ways at or beyond a set's valid count are never read.
type Cache struct {
	name     string
	setMask  uint64
	setShift uint
	ways     uint64
	lines    []uint64 // sets * ways, row major, each row MRU first
	valid    []uint16 // per-set count of resident lines
	latency  uint64

	hits      uint64
	misses    uint64
	evictions uint64
	wbacks    uint64
}

// NewCache builds a cache from its configuration. The config must be
// valid (power-of-two set count), and blocks must be at least 4 bytes
// so that block addresses leave the two state bits free.
func NewCache(name string, cfg config.CacheConfig) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache %s has invalid set count %d", name, sets))
	}
	if cfg.Ways <= 0 || cfg.Ways > 1<<16-1 {
		panic(fmt.Sprintf("mem: cache %s has invalid way count %d", name, cfg.Ways))
	}
	if cfg.BlockBytes <= stateMask {
		panic(fmt.Sprintf("mem: cache %s has block size %d < 4", name, cfg.BlockBytes))
	}
	return &Cache{
		name:     name,
		setMask:  uint64(sets - 1),
		setShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		ways:     uint64(cfg.Ways),
		lines:    make([]uint64, sets*cfg.Ways),
		valid:    make([]uint16, sets),
		latency:  cfg.AccessCycles,
	}
}

// Reset empties the cache in place, leaving it observationally equal to
// a NewCache of the same configuration: every set's valid count and the
// statistics go back to zero. Line words are left as they are, because
// ways at or beyond a set's valid count are never read.
func (c *Cache) Reset() {
	clear(c.valid)
	c.hits, c.misses, c.evictions, c.wbacks = 0, 0, 0, 0
}

// Latency returns the configured access latency in cycles.
func (c *Cache) Latency() uint64 { return c.latency }

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// row returns the valid prefix of the block's set.
func (c *Cache) row(blockAddr uint64) []uint64 {
	set := (blockAddr >> c.setShift) & c.setMask
	base := set * c.ways
	return c.lines[base : base+uint64(c.valid[set])]
}

// probe looks the block up in its set. On a hit it moves the line to
// way 0, ORs up into its state bits and returns true.
func (c *Cache) probe(blockAddr, up uint64) bool {
	row := c.row(blockAddr)
	for i, w := range row {
		if w&^stateMask == blockAddr {
			for ; i > 0; i-- {
				row[i] = row[i-1]
			}
			row[0] = w | up
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// Access touches the block: on hit the line becomes the most recently
// used and, for writes, its state upgrades. Returns whether it hit.
func (c *Cache) Access(blockAddr uint64, write, persist bool) bool {
	return c.probe(blockAddr, fillState(write, persist))
}

// AccessRead is the read probe — Access(blockAddr, false, false). The
// engine's load path (scalar and columnar batch replay alike) issues
// one per load.
func (c *Cache) AccessRead(blockAddr uint64) bool { return c.probe(blockAddr, clean) }

// AccessWrite is the non-persist write probe — Access(blockAddr, true,
// false): on a hit the line becomes dirty unless it is already
// persist-dirty. The memory controller's metadata caches (counter, MAC,
// BMT) issue one per metadata update.
func (c *Cache) AccessWrite(blockAddr uint64) bool { return c.probe(blockAddr, dirty) }

// AccessPersist is the persist-store probe — Access(blockAddr, true,
// true): on a hit the line unconditionally becomes persist-dirty. One
// per store on the engine's hot path.
func (c *Cache) AccessPersist(blockAddr uint64) bool { return c.probe(blockAddr, persistDirty) }

// RecountMiss re-records a probe of a block this cache just reported
// missing, with no intervening fill: a miss changes nothing but the
// miss counter, so the rescan is skipped.
func (c *Cache) RecountMiss() { c.misses++ }

// fillState is the state a write with these flags gives a line.
func fillState(write, persist bool) uint64 {
	if !write {
		return clean
	}
	if persist {
		return persistDirty
	}
	return dirty
}

// Victim describes a block evicted by Fill.
type Victim struct {
	Addr      uint64
	Dirty     bool // needs writeback (true dirty, not persist-dirty)
	Discarded bool // persist-dirty line silently dropped
}

// Fill allocates the block as the set's most recently used line,
// evicting the least recently used (last) way if the set is full. The
// write and persist flags set the new line's state as in Access. The
// address must be block-aligned: Fill panics if its state bits are set.
func (c *Cache) Fill(blockAddr uint64, write, persist bool) (Victim, bool) {
	if blockAddr&stateMask != 0 {
		panic(fmt.Sprintf("mem: cache %s fill of unaligned address %#x", c.name, blockAddr))
	}
	set := (blockAddr >> c.setShift) & c.setMask
	base := set * c.ways
	row := c.lines[base : base+c.ways]
	n := uint64(c.valid[set])
	var v Victim
	hadVictim := n == c.ways
	if hadVictim {
		n--
		w := row[n]
		v.Addr = w &^ stateMask
		switch w & stateMask {
		case dirty:
			v.Dirty = true
			c.wbacks++
		case persistDirty:
			v.Discarded = true
		}
		c.evictions++
	} else {
		c.valid[set] = uint16(n + 1)
	}
	copy(row[1:n+1], row[:n])
	row[0] = blockAddr | fillState(write, persist)
	return v, hadVictim
}

// Invalidate removes the block if resident, returning whether it was
// dirty (needing writeback). The lines behind it move up one way, so
// the rest of the set keeps its recency order.
func (c *Cache) Invalidate(blockAddr uint64) (wasDirty bool) {
	set := (blockAddr >> c.setShift) & c.setMask
	row := c.row(blockAddr)
	for i, w := range row {
		if w&^stateMask == blockAddr {
			copy(row[i:], row[i+1:])
			c.valid[set]--
			return w&stateMask == dirty
		}
	}
	return false
}

// Stats returns (hits, misses, evictions, writebacks).
func (c *Cache) Stats() (hits, misses, evictions, wbacks uint64) {
	return c.hits, c.misses, c.evictions, c.wbacks
}

// HitRate returns hits/(hits+misses), or 0 when no accesses happened.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
