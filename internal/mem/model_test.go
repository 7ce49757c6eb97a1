package mem

import (
	"testing"

	"secpb/internal/config"
	"secpb/internal/xrand"
)

// refCache is an executable specification of a set-associative LRU
// cache: per set, an ordered slice from MRU to LRU.
type refCache struct {
	sets     [][]uint64
	ways     int
	setMask  uint64
	setShift uint
}

func newRefCache(cfg config.CacheConfig) *refCache {
	sets := cfg.Sets()
	return &refCache{
		sets:     make([][]uint64, sets),
		ways:     cfg.Ways,
		setMask:  uint64(sets - 1),
		setShift: 6,
	}
}

func (r *refCache) set(addr uint64) int {
	return int((addr >> r.setShift) & r.setMask)
}

// access touches addr, returns hit, and maintains LRU order.
func (r *refCache) access(addr uint64) bool {
	si := r.set(addr)
	s := r.sets[si]
	for i, a := range s {
		if a == addr {
			// Move to MRU.
			copy(s[1:i+1], s[:i])
			s[0] = addr
			return true
		}
	}
	return false
}

// fill allocates addr, evicting LRU if full; returns victim and whether
// one existed.
func (r *refCache) fill(addr uint64) (uint64, bool) {
	si := r.set(addr)
	s := r.sets[si]
	var victim uint64
	had := false
	if len(s) == r.ways {
		victim = s[len(s)-1]
		s = s[:len(s)-1]
		had = true
	}
	r.sets[si] = append([]uint64{addr}, s...)
	return victim, had
}

func TestCacheMatchesReferenceModel(t *testing.T) {
	cfg := config.CacheConfig{SizeBytes: 4096, Ways: 4, BlockBytes: 64, AccessCycles: 1}
	impl := NewCache("model", cfg)
	ref := newRefCache(cfg)
	r := xrand.New(0xCACE)
	const blocks = 64 // 4x the capacity to force evictions
	for step := 0; step < 20000; step++ {
		a := uint64(r.Intn(blocks)) * 64
		wantHit := ref.access(a)
		gotHit := impl.Access(a, false, false)
		if gotHit != wantHit {
			t.Fatalf("step %d addr %#x: hit=%v want %v", step, a, gotHit, wantHit)
		}
		if !gotHit {
			refVictim, refHad := ref.fill(a)
			v, had := impl.Fill(a, false, false)
			if had != refHad {
				t.Fatalf("step %d: victim presence %v want %v", step, had, refHad)
			}
			if had && v.Addr != refVictim {
				t.Fatalf("step %d: evicted %#x, reference evicts %#x", step, v.Addr, refVictim)
			}
		}
	}
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
		gh, gm, ge, gw := reset.Stats()
		wh, wm, we, ww := fresh.Stats()
		if [4]uint64{gh, gm, ge, gw} != [4]uint64{wh, wm, we, ww} {
			t.Fatalf("seed %d: stats after reset %v, fresh %v", seed, [4]uint64{gh, gm, ge, gw}, [4]uint64{wh, wm, we, ww})
		}
	}
}

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
	default:
		out.hit = c.Lookup(op.addr)
	}
	return out
}

// randomOps feeds n random operations over 4x the cache's capacity to
// fn, so sets fill, evict and drain again.
func randomOps(r *xrand.Rand, n int, fn func(cacheOp)) {
	const blocks = 256
	for i := 0; i < n; i++ {
		fn(cacheOp{
			kind:    r.Intn(6),
			addr:    uint64(r.Intn(blocks)) * 64,
			write:   r.Intn(2) == 0,
			persist: r.Intn(2) == 0,
		})
	}
}
