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

// lineState tracks residency and writeback semantics of one cache line.
type lineState uint8

const (
	invalid lineState = iota
	clean
	dirty        // must be written back on eviction
	persistDirty // dirty but persisted via PB: silently droppable
)

// Cache is a set-associative cache with true-LRU replacement.
//
// The line metadata is stored structure-of-arrays: a probe scans only
// the tags slice, where one 8-way set's tags occupy exactly one
// 64-byte host cache line, instead of striding through 24-byte
// AoS line structs (three host lines per set). The used/state columns
// are touched only on the way that hit (or the victim being filled).
//
// Valid lines are kept prefix-dense: set s holds exactly valid[s]
// resident lines, in ways [0, valid[s]). Probes scan only that prefix
// (a cold set costs zero tag compares), fills of a non-full set append
// at the prefix end with no victim scan at all, and construction does
// not need to seed a sentinel tag — ways at or beyond the count are
// simply never read. Which way a line occupies is unobservable: hits
// depend only on residency, and LRU victim choice depends only on the
// used stamps, which are globally unique (every writer of used first
// increments the probe clock), so compaction on invalidate cannot
// change any modeled outcome.
type Cache struct {
	name     string
	setMask  uint64
	setShift uint
	ways     uint64
	tags     []uint64    // sets * ways, row major
	used     []uint64    // LRU timestamps, parallel to tags
	state    []lineState // parallel to tags
	valid    []uint16    // per-set count of resident (prefix-dense) ways
	mru      []uint16    // per-set way of the most recent hit or fill
	clock    uint64
	latency  uint64

	hits      uint64
	misses    uint64
	evictions uint64
	wbacks    uint64
}

// NewCache builds a cache from its configuration. The config must be
// valid (power-of-two set count).
func NewCache(name string, cfg config.CacheConfig) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache %s has invalid set count %d", name, sets))
	}
	if cfg.Ways <= 0 || cfg.Ways > 1<<16-1 {
		panic(fmt.Sprintf("mem: cache %s has invalid way count %d", name, cfg.Ways))
	}
	n := sets * cfg.Ways
	return &Cache{
		name:     name,
		setMask:  uint64(sets - 1),
		setShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		ways:     uint64(cfg.Ways),
		tags:     make([]uint64, n),
		used:     make([]uint64, n),
		state:    make([]lineState, n),
		valid:    make([]uint16, sets),
		mru:      make([]uint16, sets),
		latency:  cfg.AccessCycles,
	}
}

// Reset empties the cache in place, leaving it observationally equal to
// a NewCache of the same configuration: every set's valid prefix, its
// MRU way, the probe clock and the statistics go back to zero. Tags,
// stamps and states are left as they are, because ways at or beyond a
// set's valid count are never read: a fill of a non-full set appends
// without a victim scan, and a set's stamps are scanned only once it is
// full again, by which point every way has been rewritten.
func (c *Cache) Reset() {
	clear(c.valid)
	clear(c.mru)
	c.clock = 0
	c.hits, c.misses, c.evictions, c.wbacks = 0, 0, 0, 0
}

// Latency returns the configured access latency in cycles.
func (c *Cache) Latency() uint64 { return c.latency }

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// base returns the index of the block's set's first way.
func (c *Cache) base(blockAddr uint64) uint64 {
	return ((blockAddr >> c.setShift) & c.setMask) * c.ways
}

// Lookup reports whether the block is resident, without changing state.
func (c *Cache) Lookup(blockAddr uint64) bool {
	set := (blockAddr >> c.setShift) & c.setMask
	base := set * c.ways
	for _, t := range c.tags[base : base+uint64(c.valid[set])] {
		if t == blockAddr {
			return true
		}
	}
	return false
}

// Access touches the block: on hit the LRU state refreshes and, for
// writes, the line state upgrades. Returns whether it hit.
func (c *Cache) Access(blockAddr uint64, write, persist bool) bool {
	c.clock++
	set := (blockAddr >> c.setShift) & c.setMask
	base := set * c.ways
	cnt := uint64(c.valid[set])
	if m := uint64(c.mru[set]); m < cnt && c.tags[base+m] == blockAddr {
		j := base + m
		c.hits++
		c.used[j] = c.clock
		if write {
			if persist {
				c.state[j] = persistDirty
			} else if c.state[j] != persistDirty {
				c.state[j] = dirty
			}
		}
		return true
	}
	tags := c.tags[base : base+cnt]
	for i := range tags {
		if tags[i] == blockAddr {
			j := base + uint64(i)
			c.mru[set] = uint16(i)
			c.hits++
			c.used[j] = c.clock
			if write {
				if persist {
					c.state[j] = persistDirty
				} else if c.state[j] != persistDirty {
					c.state[j] = dirty
				}
			}
			return true
		}
	}
	c.misses++
	return false
}

// AccessRead is the specialized read probe — Access(blockAddr, false,
// false) with the write branches hoisted out. The engine's load path
// (scalar and columnar batch replay alike) issues one per load.
func (c *Cache) AccessRead(blockAddr uint64) bool {
	c.clock++
	set := (blockAddr >> c.setShift) & c.setMask
	base := set * c.ways
	cnt := uint64(c.valid[set])
	if m := uint64(c.mru[set]); m < cnt && c.tags[base+m] == blockAddr {
		j := base + m
		c.hits++
		c.used[j] = c.clock
		return true
	}
	tags := c.tags[base : base+cnt]
	for i := range tags {
		if tags[i] == blockAddr {
			j := base + uint64(i)
			c.mru[set] = uint16(i)
			c.hits++
			c.used[j] = c.clock
			return true
		}
	}
	c.misses++
	return false
}

// AccessWrite is the specialized non-persist write probe — Access(
// blockAddr, true, false): on a hit the line becomes dirty unless it
// is already persist-dirty. The memory controller's metadata caches
// (counter, MAC, BMT) issue one per metadata update.
func (c *Cache) AccessWrite(blockAddr uint64) bool {
	c.clock++
	set := (blockAddr >> c.setShift) & c.setMask
	base := set * c.ways
	cnt := uint64(c.valid[set])
	if m := uint64(c.mru[set]); m < cnt && c.tags[base+m] == blockAddr {
		j := base + m
		c.hits++
		c.used[j] = c.clock
		if c.state[j] != persistDirty {
			c.state[j] = dirty
		}
		return true
	}
	tags := c.tags[base : base+cnt]
	for i := range tags {
		if tags[i] == blockAddr {
			j := base + uint64(i)
			c.mru[set] = uint16(i)
			c.hits++
			c.used[j] = c.clock
			if c.state[j] != persistDirty {
				c.state[j] = dirty
			}
			return true
		}
	}
	c.misses++
	return false
}

// RecountMiss re-records a probe of a block this cache just reported
// missing, with no intervening fill: the rescan's outcome is already
// known, so only the probe clock and the miss counter advance — the
// exact state change the redundant scan would have made.
func (c *Cache) RecountMiss() {
	c.clock++
	c.misses++
}

// AccessPersist is the specialized persist-store probe — Access(
// blockAddr, true, true): on a hit the line unconditionally becomes
// persist-dirty. One per store on the engine's hot path.
func (c *Cache) AccessPersist(blockAddr uint64) bool {
	c.clock++
	set := (blockAddr >> c.setShift) & c.setMask
	base := set * c.ways
	cnt := uint64(c.valid[set])
	if m := uint64(c.mru[set]); m < cnt && c.tags[base+m] == blockAddr {
		j := base + m
		c.hits++
		c.used[j] = c.clock
		c.state[j] = persistDirty
		return true
	}
	tags := c.tags[base : base+cnt]
	for i := range tags {
		if tags[i] == blockAddr {
			j := base + uint64(i)
			c.mru[set] = uint16(i)
			c.hits++
			c.used[j] = c.clock
			c.state[j] = persistDirty
			return true
		}
	}
	c.misses++
	return false
}

// Victim describes a block evicted by Fill.
type Victim struct {
	Addr      uint64
	Dirty     bool // needs writeback (true dirty, not persist-dirty)
	Discarded bool // persist-dirty line silently dropped
}

// Fill allocates the block, evicting the LRU line if needed. The write
// and persist flags set the new line's state as in Access. A non-full
// set appends at the end of its valid prefix — no victim scan; a full
// set scans only the LRU stamps (every way is known resident, so the
// scan needs no tag loads or sentinel checks).
func (c *Cache) Fill(blockAddr uint64, write, persist bool) (Victim, bool) {
	c.clock++
	set := (blockAddr >> c.setShift) & c.setMask
	base := set * c.ways
	var v Victim
	hadVictim := false
	var victim uint64
	if cnt := uint64(c.valid[set]); cnt < c.ways {
		victim = base + cnt
		c.valid[set] = uint16(cnt + 1)
	} else {
		victim = base
		oldest := c.used[base]
		for j := base + 1; j < base+c.ways; j++ {
			if c.used[j] < oldest {
				oldest = c.used[j]
				victim = j
			}
		}
		hadVictim = true
		v.Addr = c.tags[victim]
		switch c.state[victim] {
		case dirty:
			v.Dirty = true
			c.wbacks++
		case persistDirty:
			v.Discarded = true
		}
		c.evictions++
	}
	st := clean
	if write {
		if persist {
			st = persistDirty
		} else {
			st = dirty
		}
	}
	c.tags[victim] = blockAddr
	c.state[victim] = st
	c.used[victim] = c.clock
	c.mru[set] = uint16(victim - base)
	return v, hadVictim
}

// Invalidate removes the block if resident, returning whether it was
// dirty (needing writeback). The last valid way moves into the vacated
// slot to keep the prefix dense; since hit detection depends only on
// residency and victim choice only on the (globally unique) LRU
// stamps, the compaction is unobservable.
func (c *Cache) Invalidate(blockAddr uint64) (wasDirty bool) {
	set := (blockAddr >> c.setShift) & c.setMask
	base := set * c.ways
	cnt := uint64(c.valid[set])
	for i := uint64(0); i < cnt; i++ {
		j := base + i
		if c.tags[j] == blockAddr {
			wasDirty = c.state[j] == dirty
			last := base + cnt - 1
			c.tags[j] = c.tags[last]
			c.used[j] = c.used[last]
			c.state[j] = c.state[last]
			c.valid[set] = uint16(cnt - 1)
			return wasDirty
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
