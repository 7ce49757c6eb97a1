package bmt

import (
	"secpb/internal/config"
	"secpb/internal/mem"
)

// HeightModel computes how many tree levels a leaf-to-root update or
// verification walk must traverse, under the full BMT or a Bonsai Merkle
// Forest (BMF) height-reduction scheme (Freij et al., MICRO'21).
//
// Under BMF the tree is split into subtrees whose roots are pinned in an
// on-chip root cache; an update whose subtree root is cached stops at
// the subtree root (reduced height). A root-cache miss must first swap
// the subtree root in, paying a full-height walk.
//
//   - DBMF (dynamic) re-roots subtrees on demand: effective height 2 in
//     the paper's configuration.
//   - SBMF (static) partitions the tree statically: effective height 5.
//
// The functional tree (Tree) is unaffected: BMF changes where updates
// may stop for timing purposes, not the protection structure modeled
// functionally.
type HeightModel struct {
	mode       config.BMFMode
	fullHeight int
	redHeight  int
	rootCache  *mem.Cache
	subShift   uint // log2(pages per subtree root)

	hits, misses uint64
}

// NewHeightModel builds the model from the configuration.
func NewHeightModel(cfg config.Config) *HeightModel {
	m := &HeightModel{mode: cfg.BMFMode, fullHeight: cfg.BMTLevels}
	if cfg.BMFMode == config.BMFNone {
		m.redHeight = cfg.BMTLevels
		return m
	}
	switch cfg.BMFMode {
	case config.BMFDynamic:
		m.redHeight = cfg.DBMFHeight
	case config.BMFStatic:
		m.redHeight = cfg.SBMFHeight
	}
	// A subtree root at reduced height h covers Arity^h leaves (pages);
	// Arity is 8 so the shift is 3*h.
	m.subShift = uint(3 * m.redHeight)
	// The root cache holds 64B entries: 4KB -> 64 subtree roots.
	rootCfg := config.CacheConfig{
		SizeBytes:    cfg.RootCacheKB << 10,
		Ways:         8,
		BlockBytes:   64,
		AccessCycles: 1,
	}
	m.rootCache = mem.NewCache("bmfroot", rootCfg)
	return m
}

// Reset empties the root cache and zeroes the statistics in place, as
// NewHeightModel would leave them.
func (m *HeightModel) Reset() {
	if m.rootCache != nil {
		m.rootCache.Reset()
	}
	m.hits, m.misses = 0, 0
}

// WalkLevels returns the number of hash levels an update/verify of the
// given page traverses. For BMF modes a root-cache miss pays the full
// height (subtree root swap-in) and installs the root for future walks.
func (m *HeightModel) WalkLevels(page uint64) int {
	if m.mode == config.BMFNone {
		return m.fullHeight
	}
	rootID := (page >> m.subShift) << 6 // pseudo-address of subtree root
	if m.rootCache.Access(rootID, true, false) {
		m.hits++
		return m.redHeight
	}
	m.misses++
	m.rootCache.Fill(rootID, true, false)
	return m.fullHeight
}

// Stats returns root-cache (hits, misses); both are zero under BMFNone.
func (m *HeightModel) Stats() (hits, misses uint64) { return m.hits, m.misses }
