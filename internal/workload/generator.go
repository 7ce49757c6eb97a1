package workload

import (
	"secpb/internal/addr"
	"secpb/internal/seal"
	"secpb/internal/trace"
	"secpb/internal/xrand"
)

// Region bases keep the persistent (written) region and the read-only
// scan region disjoint so cache-set interactions stay realistic.
const (
	persistBase = uint64(0x1000_0000)
	readBase    = uint64(0x8000_0000)
)

// Generator produces the deterministic op stream for one profile. It
// implements trace.Source.
type Generator struct {
	p Profile
	r *xrand.Rand

	zipf *xrand.Zipf // Hot pattern block chooser
	scan uint64      // Scan/Stream cursor

	curBlock  addr.Block // block the current store burst writes to
	burstLeft int        // stores remaining in the burst
	wordIdx   int        // next word within the block for the burst
	gapDebt   uint32     // deferred instruction gap from chained bursts

	recent    []addr.Block // ring of recently written blocks for loads
	recentPos int

	z *zooState // state machine for zoo patterns (nil for SPEC proxies)

	emitted uint64 // ops emitted
	limit   uint64 // max ops; 0 means unlimited
}

// NewGenerator returns a generator for profile p seeded with seed. If
// maxOps > 0 the stream ends after maxOps operations.
func NewGenerator(p Profile, seed uint64, maxOps uint64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := xrand.New(seed ^ hashName(p.Name))
	g := &Generator{
		p:      p,
		r:      r,
		recent: make([]addr.Block, 64),
		limit:  maxOps,
	}
	if p.Pattern == Hot {
		g.zipf = xrand.NewZipf(r, p.WriteWorkingSet, p.ZipfSkew)
	}
	if p.Pattern.zoo() {
		g.initZoo()
	}
	return g, nil
}

// nameSeed starts hashName's fold. It is not the FNV-64a offset basis
// (a digit short of it) and must not be corrected: every generated
// trace, and so every artifact under results/, depends on its value.
const nameSeed uint64 = 1469598103934665603

// hashName mixes the benchmark name into the seed so same-seed runs of
// different benchmarks do not correlate.
func hashName(name string) uint64 { return seal.Add(nameSeed, []byte(name)) }

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.p }

// nextStoreBlock picks the block for a new store burst.
func (g *Generator) nextStoreBlock() addr.Block {
	var idx uint64
	switch g.p.Pattern {
	case Stream:
		idx = g.scan % uint64(g.p.WriteWorkingSet)
		g.scan++
	case Scan:
		idx = g.scan % uint64(g.p.WriteWorkingSet)
		g.scan++
	case Hot:
		idx = uint64(g.zipf.Next())
	}
	return addr.BlockOf(persistBase + idx*addr.BlockBytes)
}

// gapFor returns the non-memory instruction gap preceding one op, drawn
// so the long-run op rate matches the profile.
func (g *Generator) gapFor() uint32 {
	perKilo := g.p.StoresPerKilo + g.p.LoadsPerKilo
	mean := 1000/perKilo - 1
	if mean < 0 {
		mean = 0
	}
	// Uniform in [0.5*mean, 1.5*mean] keeps the mean while adding jitter.
	lo := 0.5 * mean
	return uint32(lo + g.r.Float64()*mean)
}

// Next implements trace.Source.
func (g *Generator) Next() (trace.Op, bool) {
	if g.limit > 0 && g.emitted >= g.limit {
		return trace.Op{}, false
	}
	return g.next(), true
}

// next emits one op unconditionally (the caller has checked the limit).
func (g *Generator) next() trace.Op {
	g.emitted++

	// Zoo patterns run their own state machines (zoo.go).
	if g.z != nil {
		return g.zooNext()
	}

	// A store burst in progress keeps priority so within-block locality
	// is contiguous, as produced by real compilers (struct/buffer fills).
	if g.burstLeft > 0 || g.r.Bool(g.burstStartProb()) {
		return g.nextStore()
	}
	return g.nextLoad()
}

// NextBatch implements trace.BatchSource: it fills b's columns directly
// from the generator state machine, emitting exactly the stream Next
// would, with no per-op interface dispatch on the replay side.
func (g *Generator) NextBatch(b *trace.Batch) bool {
	b.Reset()
	for !b.Full() {
		if g.limit > 0 && g.emitted >= g.limit {
			break
		}
		b.Append(g.next())
	}
	return b.Len() > 0
}

// burstStartProb returns the probability of starting a store burst when
// no burst is active, chosen so the long-run store fraction of the op
// stream equals StoresPerKilo/(StoresPerKilo+LoadsPerKilo) despite each
// burst contributing Burst stores on average: with store fraction f and
// mean burst length B, a renewal argument gives q = f / (B(1-f) + f).
func (g *Generator) burstStartProb() float64 {
	f := g.p.StoresPerKilo / (g.p.StoresPerKilo + g.p.LoadsPerKilo)
	b := float64(g.p.Burst)
	return f / (b*(1-f) + f)
}

func (g *Generator) nextStore() trace.Op {
	var gap uint32
	if g.burstLeft == 0 {
		g.curBlock = g.nextStoreBlock()
		// Burst length: 1..2*Burst-1 uniform, mean = Burst.
		g.burstLeft = 1 + g.r.Intn(2*g.p.Burst-1)
		g.wordIdx = g.r.Intn(8)
		g.recent[g.recentPos] = g.curBlock
		g.recentPos = (g.recentPos + 1) % len(g.recent)
		// Stores cluster: the whole burst's instruction gap lands
		// before its first store and the rest issue back-to-back, as
		// compiled struct/buffer fills do. Bursts further cluster into
		// trains (several blocks written consecutively, e.g. multiple
		// struct fills): with probability 1/2 a burst chains to the
		// previous one with zero gap and its gap budget is deferred,
		// keeping the long-run store rate intact. This burstiness is
		// what exposes store-acceptance latency past the store buffer.
		for i := 0; i < g.burstLeft; i++ {
			gap += g.gapFor()
		}
		if g.emitted > 1 && g.r.Bool(0.5) {
			g.gapDebt += gap
			gap = 0
		} else {
			gap += g.gapDebt
			g.gapDebt = 0
		}
	}
	g.burstLeft--
	op := trace.Op{
		Kind: trace.Store,
		Addr: g.curBlock.Addr() + uint64(g.wordIdx)*8,
		Size: 8,
		Data: g.r.Uint64(),
		Gap:  gap,
	}
	g.wordIdx = (g.wordIdx + 1) % 8
	return op
}

func (g *Generator) nextLoad() trace.Op {
	var a uint64
	if g.r.Bool(g.p.ReadRecentFrac) && g.recent[0] != 0 {
		// Load-after-store locality: read a recently written block.
		a = g.recent[g.r.Intn(len(g.recent))].Addr()
	} else {
		idx := g.r.Uint64n(uint64(g.p.ReadWorkingSet))
		a = readBase + idx*addr.BlockBytes
	}
	return trace.Op{
		Kind: trace.Load,
		Addr: a + uint64(g.r.Intn(8))*8,
		Size: 8,
		Gap:  g.gapFor(),
	}
}

// Generate materializes n ops into a slice (convenience for tests and
// small experiments; large runs should stream via Next).
func Generate(p Profile, seed uint64, n int) ([]trace.Op, error) {
	g, err := NewGenerator(p, seed, uint64(n))
	if err != nil {
		return nil, err
	}
	ops := make([]trace.Op, 0, n)
	for {
		op, ok := g.Next()
		if !ok {
			return ops, nil
		}
		ops = append(ops, op)
	}
}
