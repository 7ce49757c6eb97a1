package mem

import (
	"fmt"
	"math/bits"
	"testing"

	"secpb/internal/config"
	"secpb/internal/xrand"
)

// refState is a reference line's writeback semantics.
type refState uint8

const (
	refClean refState = iota
	refDirty
	refPersistDirty
)

// refLine is one resident line of the reference model.
type refLine struct {
	addr  uint64
	state refState
}

// refCache is an executable specification of a set-associative LRU
// cache: per set, an ordered slice of lines from MRU to LRU, with the
// same line states and statistics as Cache.
type refCache struct {
	sets     [][]refLine
	ways     int
	setMask  uint64
	setShift uint

	hits, misses, evictions, wbacks uint64
}

func newRefCache(cfg config.CacheConfig) *refCache {
	sets := cfg.Sets()
	return &refCache{
		sets:     make([][]refLine, sets),
		ways:     cfg.Ways,
		setMask:  uint64(sets - 1),
		setShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
	}
}

func (r *refCache) set(addr uint64) int {
	return int((addr >> r.setShift) & r.setMask)
}

// access touches addr, returns hit, moves a hit line to MRU and applies
// a write's state upgrade: a persist write makes the line persist-dirty,
// a plain write makes it dirty unless it already is persist-dirty.
func (r *refCache) access(addr uint64, write, persist bool) bool {
	s := r.sets[r.set(addr)]
	for i, l := range s {
		if l.addr == addr {
			if write {
				if persist {
					l.state = refPersistDirty
				} else if l.state != refPersistDirty {
					l.state = refDirty
				}
			}
			copy(s[1:i+1], s[:i])
			s[0] = l
			r.hits++
			return true
		}
	}
	r.misses++
	return false
}

// fill allocates addr at MRU, evicting the LRU line if the set is full;
// returns the victim and whether one existed.
func (r *refCache) fill(addr uint64, write, persist bool) (Victim, bool) {
	si := r.set(addr)
	s := r.sets[si]
	var v Victim
	had := false
	if len(s) == r.ways {
		l := s[len(s)-1]
		s = s[:len(s)-1]
		v = Victim{Addr: l.addr, Dirty: l.state == refDirty, Discarded: l.state == refPersistDirty}
		if v.Dirty {
			r.wbacks++
		}
		r.evictions++
		had = true
	}
	st := refClean
	if write {
		st = refDirty
		if persist {
			st = refPersistDirty
		}
	}
	r.sets[si] = append([]refLine{{addr, st}}, s...)
	return v, had
}

// invalidate removes addr, keeping the recency order of the rest, and
// reports whether it was (truly) dirty.
func (r *refCache) invalidate(addr uint64) bool {
	si := r.set(addr)
	s := r.sets[si]
	for i, l := range s {
		if l.addr == addr {
			r.sets[si] = append(s[:i], s[i+1:]...)
			return l.state == refDirty
		}
	}
	return false
}

func (r *refCache) lookup(addr uint64) bool {
	for _, l := range r.sets[r.set(addr)] {
		if l.addr == addr {
			return true
		}
	}
	return false
}

func (r *refCache) stats() [4]uint64 {
	return [4]uint64{r.hits, r.misses, r.evictions, r.wbacks}
}

func cacheStats(c *Cache) [4]uint64 {
	h, m, e, w := c.Stats()
	return [4]uint64{h, m, e, w}
}

// cacheOpKinds is the number of distinct cacheOp kinds.
const cacheOpKinds = 7

// cacheOp is one random cache operation; kind selects the method.
type cacheOp struct {
	kind           int
	addr           uint64
	write, persist bool
}

// cacheOutcome is everything one operation reports.
type cacheOutcome struct {
	hit, had bool
	victim   Victim
}

func (op cacheOp) apply(c *Cache) cacheOutcome {
	var out cacheOutcome
	switch op.kind {
	case 0:
		if out.hit = c.Access(op.addr, op.write, op.persist); !out.hit {
			out.victim, out.had = c.Fill(op.addr, op.write, op.persist)
		}
	case 1:
		if out.hit = c.AccessRead(op.addr); !out.hit {
			out.victim, out.had = c.Fill(op.addr, false, false)
		}
	case 2:
		if out.hit = c.AccessWrite(op.addr); !out.hit {
			out.victim, out.had = c.Fill(op.addr, true, false)
		}
	case 3:
		if out.hit = c.AccessPersist(op.addr); !out.hit {
			out.victim, out.had = c.Fill(op.addr, true, true)
		}
	case 4:
		out.had = c.Invalidate(op.addr)
	case 5:
		// The LoadAfterL1Miss shape: a read miss recounted once more
		// before the fill.
		if out.hit = c.AccessRead(op.addr); !out.hit {
			c.RecountMiss()
			out.victim, out.had = c.Fill(op.addr, false, false)
		}
	default:
		out.hit = c.Lookup(op.addr)
	}
	return out
}

// applyRef is apply on the reference model.
func (op cacheOp) applyRef(r *refCache) cacheOutcome {
	var out cacheOutcome
	write, persist := op.write, op.persist
	switch op.kind {
	case 1, 5:
		write, persist = false, false
	case 2:
		write, persist = true, false
	case 3:
		write, persist = true, true
	}
	switch op.kind {
	case 0, 1, 2, 3, 5:
		if out.hit = r.access(op.addr, write, persist); !out.hit {
			if op.kind == 5 {
				r.misses++
			}
			out.victim, out.had = r.fill(op.addr, write, persist)
		}
	case 4:
		out.had = r.invalidate(op.addr)
	default:
		out.hit = r.lookup(op.addr)
	}
	return out
}

// randomOps feeds n random operations over 4x the cache's capacity to
// fn, so sets fill, evict and drain again.
func randomOps(r *xrand.Rand, n int, fn func(cacheOp)) {
	const blocks = 256
	for i := 0; i < n; i++ {
		fn(cacheOp{
			kind:    r.Intn(cacheOpKinds),
			addr:    uint64(r.Intn(blocks)) * 64,
			write:   r.Intn(2) == 0,
			persist: r.Intn(2) == 0,
		})
	}
}

// diffCache runs ops on a Cache and a refCache of the same geometry in
// lockstep and fails at the first outcome or final statistic that
// differs.
func diffCache(t *testing.T, cfg config.CacheConfig, ops []cacheOp) {
	t.Helper()
	impl := NewCache("model", cfg)
	ref := newRefCache(cfg)
	for step, op := range ops {
		if got, want := op.apply(impl), op.applyRef(ref); got != want {
			t.Fatalf("ways %d step %d %+v: cache %+v, reference %+v", cfg.Ways, step, op, got, want)
		}
	}
	if got, want := cacheStats(impl), ref.stats(); got != want {
		t.Fatalf("ways %d: stats %v, reference %v", cfg.Ways, got, want)
	}
}

// refGeometries are the differential geometries: 4 sets at 1, 2, 8
// and 32 ways. 8 ways is the L1 and metadata-cache geometry, 32 the L3.
func refGeometries() []config.CacheConfig {
	var cfgs []config.CacheConfig
	for _, ways := range []int{1, 2, 8, 32} {
		cfgs = append(cfgs, config.CacheConfig{SizeBytes: 4 * ways * 64, Ways: ways, BlockBytes: 64, AccessCycles: 1})
	}
	return cfgs
}

// TestCacheMatchesReferenceModel drives every operation kind against
// the move-to-front reference at every differential geometry. Half the
// addresses come from a hot range of half the capacity, so hits land on
// every recency position; the rest span 4x the capacity, so sets fill,
// evict and drain.
func TestCacheMatchesReferenceModel(t *testing.T) {
	for _, cfg := range refGeometries() {
		t.Run(fmt.Sprintf("ways%d", cfg.Ways), func(t *testing.T) {
			lines := cfg.SizeBytes / cfg.BlockBytes
			for seed := uint64(1); seed <= 8; seed++ {
				r := xrand.New(0xCACE + seed)
				ops := make([]cacheOp, 20000)
				for i := range ops {
					blocks := 4 * lines
					if r.Intn(2) == 0 {
						blocks = max(lines/2, 1)
					}
					ops[i] = cacheOp{
						kind:    r.Intn(cacheOpKinds),
						addr:    uint64(r.Intn(blocks)) * 64,
						write:   r.Intn(2) == 0,
						persist: r.Intn(2) == 0,
					}
				}
				diffCache(t, cfg, ops)
			}
		})
	}
}

// FuzzCacheVsReference decodes a byte string into an op sequence and
// diffs it against the reference. Byte 0 picks the geometry; each later
// pair of bytes is one op: kind and write/persist flags, then the block
// index (256 blocks, 2x the largest geometry's capacity).
func FuzzCacheVsReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 1, 0, 1})
	f.Add([]byte{1, 8, 0, 9, 4, 16, 8, 0x0a, 0, 0x0b, 4, 0x18, 8, 0x01, 0, 0x04, 0})
	f.Add([]byte{2, 0, 0, 0x10, 4, 0x20, 8, 0x30, 12, 0x40, 16, 1, 8, 0x0d, 20, 0x03, 0})
	f.Add([]byte{3, 1, 0, 1, 4, 1, 8, 1, 12, 1, 16, 1, 20, 1, 24, 1, 28, 1, 32, 1, 0, 0x0e, 0, 0x06, 12})
	// 2 ways: a read hit at way 1 decides the next victim.
	f.Add([]byte{1, 1, 0, 1, 4, 1, 0, 1, 8, 6, 0, 6, 4})
	// 32 ways: fill set 0, re-read its LRU line, then evict.
	deep := []byte{3}
	for b := byte(0); b < 128; b += 4 {
		deep = append(deep, 1+8, b)
	}
	f.Add(append(deep, 1, 0, 1, 128, 6, 0, 6, 4))
	seq := []byte{3}
	for i := 0; i < 300; i++ {
		seq = append(seq, byte(i*37), byte(i*13%160))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfgs := refGeometries()
		cfg := cfgs[int(data[0])%len(cfgs)]
		var ops []cacheOp
		for i := 1; i+1 < len(data); i += 2 {
			b := data[i]
			ops = append(ops, cacheOp{
				kind:    int(b&7) % cacheOpKinds,
				addr:    uint64(data[i+1]) * 64,
				write:   b&8 != 0,
				persist: b&16 != 0,
			})
		}
		diffCache(t, cfg, ops)
	})
}

func TestCacheOccupancyNeverExceedsWays(t *testing.T) {
	cfg := config.CacheConfig{SizeBytes: 1024, Ways: 2, BlockBytes: 64, AccessCycles: 1}
	c := NewCache("cap", cfg)
	r := xrand.New(7)
	resident := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		a := uint64(r.Intn(40)) * 64
		if !c.Access(a, false, false) {
			if v, had := c.Fill(a, false, false); had {
				delete(resident, v.Addr)
			}
			resident[a] = true
		}
		// Count per-set residency.
		perSet := map[uint64]int{}
		for b := range resident {
			perSet[(b>>6)&uint64(cfg.Sets()-1)]++
		}
		for set, n := range perSet {
			if n > cfg.Ways {
				t.Fatalf("step %d: set %d holds %d > %d ways", i, set, n, cfg.Ways)
			}
		}
	}
}

// TestCacheResetMatchesNew drives a cache through a random op prefix
// (every probe flavour, fills and invalidations), resets it, and then
// runs a random suffix on it and on a NewCache of the same geometry in
// lockstep: every hit, victim, invalidation result and the final
// statistics must agree, since Reset must be indistinguishable from a
// freshly built cache.
func TestCacheResetMatchesNew(t *testing.T) {
	cfg := config.CacheConfig{SizeBytes: 4096, Ways: 4, BlockBytes: 64, AccessCycles: 1}
	for seed := uint64(1); seed <= 20; seed++ {
		r := xrand.New(seed)
		reset := NewCache("reset", cfg)
		randomOps(r, 500+r.Intn(3000), func(op cacheOp) { op.apply(reset) })
		reset.Reset()
		fresh := NewCache("fresh", cfg)
		step := 0
		randomOps(r, 5000, func(op cacheOp) {
			if got, want := op.apply(reset), op.apply(fresh); got != want {
				t.Fatalf("seed %d step %d %+v: reset cache %+v, fresh cache %+v", seed, step, op, got, want)
			}
			step++
		})
		if got, want := cacheStats(reset), cacheStats(fresh); got != want {
			t.Fatalf("seed %d: stats after reset %v, fresh %v", seed, got, want)
		}
	}
}
