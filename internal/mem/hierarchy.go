package mem

import "secpb/internal/config"

// AccessResult describes where in the hierarchy an access was served and
// what it cost.
type AccessResult struct {
	// Level is 1..3 for cache hits, 4 for PM.
	Level int
	// Cycles is the load-to-use latency in core cycles (excluding any
	// PM queueing, which the memory-controller model adds).
	Cycles uint64
	// PMAccess reports whether PM was accessed (LLC miss).
	PMAccess bool
}

// Hierarchy models the three-level data cache hierarchy. All levels are
// non-inclusive; fills allocate in every level along the path (matching
// the common gem5 classic-cache setup the paper uses).
type Hierarchy struct {
	l1, l2, l3 *Cache
	pmCycles   uint64
	// Cumulative load-to-use latencies per serving level, precomputed so
	// the per-access path adds nothing: lat1 = L1, lat2 = L1+L2,
	// lat3 = L1+L2+L3, lat4 = lat3 + PM read.
	lat1, lat2, lat3, lat4 uint64
}

// NewHierarchy builds the L1/L2/L3 hierarchy from cfg.
func NewHierarchy(cfg config.Config) *Hierarchy {
	h := &Hierarchy{
		l1:       NewCache("l1d", cfg.L1),
		l2:       NewCache("l2", cfg.L2),
		l3:       NewCache("llc", cfg.L3),
		pmCycles: cfg.PMReadCycles(),
	}
	h.lat1 = h.l1.Latency()
	h.lat2 = h.lat1 + h.l2.Latency()
	h.lat3 = h.lat2 + h.l3.Latency()
	h.lat4 = h.lat3 + h.pmCycles
	return h
}

// Reset empties every level in place (Cache.Reset), leaving the
// hierarchy equal to a NewHierarchy of the same geometry.
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
	h.l3.Reset()
}

// L1 returns the L1D cache model.
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 returns the L2 cache model.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// L3 returns the last-level cache model.
func (h *Hierarchy) L3() *Cache { return h.l3 }

// Load performs a read of the block, filling on the way in.
func (h *Hierarchy) Load(blockAddr uint64) AccessResult {
	if h.l1.AccessRead(blockAddr) {
		return AccessResult{Level: 1, Cycles: h.lat1}
	}
	return h.loadBelowL1(blockAddr)
}

// LoadAfterL1Miss is Load for a caller that has just probed L1 for the
// block and missed. The engine's load path issues its own L1 probe
// first; Load would rescan the same set with a foreknown outcome, so
// this form recounts the L1 miss arithmetically (RecountMiss) and
// proceeds from L2 — the statistics and every set's recency order end
// exactly as Load leaves them.
func (h *Hierarchy) LoadAfterL1Miss(blockAddr uint64) AccessResult {
	h.l1.RecountMiss()
	return h.loadBelowL1(blockAddr)
}

// loadBelowL1 is Load past an L1 miss: probe L2 and L3, filling every
// level above the one that serves the block.
func (h *Hierarchy) loadBelowL1(blockAddr uint64) AccessResult {
	if h.l2.AccessRead(blockAddr) {
		h.l1.Fill(blockAddr, false, false)
		return AccessResult{Level: 2, Cycles: h.lat2}
	}
	if h.l3.AccessRead(blockAddr) {
		h.l2.Fill(blockAddr, false, false)
		h.l1.Fill(blockAddr, false, false)
		return AccessResult{Level: 3, Cycles: h.lat3}
	}
	h.l3.Fill(blockAddr, false, false)
	h.l2.Fill(blockAddr, false, false)
	h.l1.Fill(blockAddr, false, false)
	return AccessResult{Level: 4, Cycles: h.lat4, PMAccess: true}
}

// StoreTouch performs a write of the block. Under a persistent
// hierarchy the store simultaneously enters the persist buffer, so the
// line is marked persist-dirty: its eventual eviction is silently
// discarded because the PB guarantees the data reaches PM (paper
// Section IV.C). The store allocates in every level on a miss
// (write-allocate) but needs no fill data from PM: the PB coalesces at
// word granularity and fetches or merges the rest itself. No result is
// returned because PB acceptance, not the hierarchy, sets store timing.
func (h *Hierarchy) StoreTouch(blockAddr uint64) {
	if h.l1.AccessPersist(blockAddr) {
		return
	}
	if h.l2.AccessPersist(blockAddr) {
		h.l1.Fill(blockAddr, true, true)
		return
	}
	if h.l3.AccessPersist(blockAddr) {
		h.l2.Fill(blockAddr, true, true)
		h.l1.Fill(blockAddr, true, true)
		return
	}
	h.l3.Fill(blockAddr, true, true)
	h.l2.Fill(blockAddr, true, true)
	h.l1.Fill(blockAddr, true, true)
}

// StoreBuffer models the core's store queue: stores enter at commit and
// leave when the persist buffer accepts them. Because acceptance can be
// slow under eager SecPB schemes, the buffer absorbs bursts; the core
// stalls only when it is full. It is implemented as a ring of completion
// times.
type StoreBuffer struct {
	done  []uint64 // acceptance-completion cycle per in-flight store
	head  int      // oldest in-flight store
	tail  int      // next free slot
	count int
	stall uint64 // cumulative full-stall cycles
}

// NewStoreBuffer returns a buffer with the given capacity.
func NewStoreBuffer(capacity int) *StoreBuffer {
	if capacity <= 0 {
		panic("mem: store buffer capacity must be positive")
	}
	return &StoreBuffer{done: make([]uint64, capacity)}
}

// Push records a store committing at cycle `now` whose PB acceptance
// completes at `acceptDone`. It returns the cycle at which the core can
// actually proceed: `now` if the buffer has room, otherwise the time the
// oldest entry retires.
func (sb *StoreBuffer) Push(now, acceptDone uint64) uint64 {
	// Retire all entries already accepted by `now`. Wrap with a compare
	// instead of a modulo: the capacity is not a power of two, so the %
	// compiled to a divide on what is a once-per-store path.
	for sb.count > 0 && sb.done[sb.head] <= now {
		if sb.head++; sb.head == len(sb.done) {
			sb.head = 0
		}
		sb.count--
	}
	proceed := now
	if sb.count == len(sb.done) {
		// Full: wait for the oldest acceptance.
		proceed = sb.done[sb.head]
		sb.stall += proceed - now
		if sb.head++; sb.head == len(sb.done) {
			sb.head = 0
		}
		sb.count--
	}
	sb.done[sb.tail] = acceptDone
	if sb.tail++; sb.tail == len(sb.done) {
		sb.tail = 0
	}
	sb.count++
	return proceed
}

// DrainedBy returns the cycle at which every store currently in the
// buffer has been accepted (used at crash points and fences).
func (sb *StoreBuffer) DrainedBy() uint64 {
	var max uint64
	for i, c := 0, sb.count; c > 0; c-- {
		idx := (sb.head + i) % len(sb.done)
		if sb.done[idx] > max {
			max = sb.done[idx]
		}
		i++
	}
	return max
}

// Occupancy returns the number of in-flight stores.
func (sb *StoreBuffer) Occupancy() int { return sb.count }

// StallCycles returns the cumulative cycles the core spent blocked on a
// full store buffer.
func (sb *StoreBuffer) StallCycles() uint64 { return sb.stall }
