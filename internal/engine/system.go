package engine

import (
	"context"
	"fmt"
	"runtime"

	"secpb/internal/addr"
	"secpb/internal/coherence"
	"secpb/internal/config"
	"secpb/internal/crashpoint"
	"secpb/internal/nvm"
	"secpb/internal/runner"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// Multi-core defaults (overridable through config.MC* knobs).
const (
	// SharedBase is the byte address where the shared coherent region
	// starts — far above any per-core private range, so classification
	// is a single compare.
	SharedBase = uint64(1) << 40
	// defaultEpochOps is the per-core op count between drain-epoch
	// barriers.
	defaultEpochOps = 256
	// defaultSharedPerKilo redirects this many ops per kilo-op of each
	// core's stream to the shared region.
	defaultSharedPerKilo = 30
	// defaultSharedBlocks is the shared hot-region size in blocks, small
	// enough that cross-core conflicts (migrations, read flushes,
	// invalidations) actually occur.
	defaultSharedBlocks = 64
	// SharedReadCyc is the parallel-phase charge for reading a
	// non-Modified shared line: directory peek plus one interconnect hop.
	SharedReadCyc = coherence.DirAccessCyc + coherence.LinkCyc
)

// SharedPlan is the deterministic shared-region rewrite: a pure function
// of (seed, core, op index) deciding which ops of a core's private
// stream are redirected to the shared coherent region and to which
// block. crashsim's golden model replays the identical classification.
type SharedPlan struct {
	seed     uint64
	perKilo  uint64
	blocks   uint64
	epochOps int
}

// NewSharedPlan derives the plan from cfg (seed and MC* knobs, with
// defaults applied).
func NewSharedPlan(cfg config.Config) SharedPlan {
	p := SharedPlan{
		seed:     cfg.Seed,
		perKilo:  uint64(cfg.MCSharedPerKilo),
		blocks:   uint64(cfg.MCSharedBlocks),
		epochOps: cfg.MCEpochOps,
	}
	if cfg.MCSharedPerKilo == 0 {
		p.perKilo = defaultSharedPerKilo
	}
	if p.blocks == 0 {
		p.blocks = defaultSharedBlocks
	}
	if p.epochOps <= 0 {
		p.epochOps = defaultEpochOps
	}
	return p
}

// Epoch returns the drain epoch containing a core's op index.
func (p SharedPlan) Epoch(opIndex int) int { return opIndex / p.epochOps }

// mix finalizes a 64-bit hash (splitmix64 finalizer).
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Rewrite redirects op — the opIndex'th op of the given core's stream —
// to the shared region when the plan selects it, returning the rewritten
// op and whether it is shared. Fences are never redirected.
func (p SharedPlan) Rewrite(core, opIndex int, op trace.Op) (trace.Op, bool) {
	if op.Kind != trace.Load && op.Kind != trace.Store {
		return op, false
	}
	h := mix(p.seed ^ uint64(core)<<32 ^ uint64(opIndex) ^ 0x5ec9bc0de)
	if h%1000 >= p.perKilo {
		return op, false
	}
	blk := (h / 1000) % p.blocks
	// Preserve the word offset within the block (stores are word-sized).
	off := op.Addr & (addr.BlockBytes - 1) &^ 7
	op.Addr = SharedBase + blk*addr.BlockBytes + off
	return op, true
}

// CoreSeed derives core c's workload seed: streams decorrelate across
// cores but each is fully determined by (cfg.Seed, c).
func CoreSeed(seed uint64, c int) uint64 {
	if c == 0 {
		return seed
	}
	s := mix(seed ^ uint64(c)*0x9E3779B97F4A7C15)
	if s == 0 {
		s = 1
	}
	return s
}

// coreSim is one simulated core inside a System: a full private Engine
// (store buffer, SecPB, cache hierarchy, memory-channel shard with its
// own controller, PM and metadata stores) plus the core's op stream and
// per-epoch deferral state.
type coreSim struct {
	id   int
	eng  *Engine
	src  trace.BatchSource
	done bool

	// buf is the core's own batch, which filling sources append into;
	// cur is the batch the core reads, refilled from a fresh copy of
	// buf's header (as RunBatch does) when pos reaches its end.
	buf *trace.Batch
	cur trace.Batch
	pos int

	opIndex        int        // ops consumed from src so far
	deferred       []trace.Op // shared ops awaiting the barrier
	immediateReads uint64     // non-M shared reads served this epoch
}

// System simulates N cores: private data paths step in parallel on a
// bounded worker pool (each core's state is fully disjoint), while the
// shared coherent region is handled by the promoted MESI protocol of
// internal/coherence at drain-epoch barriers. Within an epoch each core
// may read non-Modified shared lines directly (the directory and
// coherent view are frozen between barriers, so those reads are
// deterministic and lock-striped); shared writes and reads of
// Modified lines defer to the barrier, where they replay serially in
// canonical order — ascending core id, program order within a core —
// making every result byte-identical at any worker count.
type System struct {
	cfg   config.Config
	prof  workload.Profile
	plan  SharedPlan
	cores []*coreSim
	// shared is the coherence domain: per-core shared-region SecPBs and
	// the shared memory-channel controller behind the MESI directory.
	shared  *coherence.System
	sink    crashpoint.Sink
	workers int
	epochs  uint64
}

// NewSystem builds an n-core system (n = cfg.Cores, min 1) running nops
// operations of prof per core, streams generated from per-core seeds.
func NewSystem(cfg config.Config, prof workload.Profile, key []byte, nops uint64) (*System, error) {
	n := cfg.EffectiveCores()
	srcs := make([]trace.BatchSource, n)
	for c := 0; c < n; c++ {
		gen, err := workload.NewGenerator(prof, CoreSeed(cfg.Seed, c), nops)
		if err != nil {
			return nil, err
		}
		srcs[c] = gen
	}
	return NewSystemSources(cfg, prof, key, srcs)
}

// NewSystemSources builds a System over caller-provided per-core op
// sources (crashsim uses pre-materialized slices so its golden model
// sees the identical stream).
func NewSystemSources(cfg config.Config, prof workload.Profile, key []byte, srcs []trace.BatchSource) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Scheme == config.SchemeSP {
		return nil, fmt.Errorf("engine: multi-core System requires per-core persist buffers; SP baseline is single-core only")
	}
	n := len(srcs)
	if n == 0 || n != cfg.EffectiveCores() {
		return nil, fmt.Errorf("engine: %d sources for %d cores", n, cfg.EffectiveCores())
	}
	shared, err := coherence.New(cfg, n, key)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:    cfg,
		prof:   prof,
		plan:   NewSharedPlan(cfg),
		shared: shared,
	}
	if n == 1 {
		// A 1-core System is the classic engine with an epoch loop
		// around it: no shared region, no coherence traffic, results
		// byte-identical to RunBenchmark.
		s.plan.perKilo = 0
	}
	for c := 0; c < n; c++ {
		coreCfg := cfg
		if cfg.FaultEnabled() {
			// Independent, reproducible per-core fault streams on each
			// memory-channel shard.
			base := cfg.FaultSeed
			if base == 0 {
				base = cfg.Seed
			}
			coreCfg.FaultSeed = mix(base ^ uint64(c)*0xA24BAED4963EE407)
			if coreCfg.FaultSeed == 0 {
				coreCfg.FaultSeed = 1
			}
		}
		eng, err := New(coreCfg, prof, key)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, &coreSim{id: c, eng: eng, src: srcs[c], buf: trace.NewBatch(defaultEpochOps)})
	}
	return s, nil
}

// Cores returns the core count.
func (s *System) Cores() int { return len(s.cores) }

// Core returns core i's private engine.
func (s *System) Core(i int) *Engine { return s.cores[i].eng }

// Shared returns the shared-region coherence domain.
func (s *System) Shared() *coherence.System { return s.shared }

// Plan returns the shared-region rewrite plan.
func (s *System) Plan() SharedPlan { return s.plan }

// SetWorkers pins the step-parallelism (0 = one worker per CPU, 1 =
// serial). Results are identical at any setting.
func (s *System) SetWorkers(n int) { s.workers = n }

// SetCrashSink installs a crash-injection sink across every core's
// pipeline and the shared coherence domain. A non-nil sink also forces
// serial core stepping so the global crash-point stream is
// deterministic (core 0's epoch, core 1's, ..., then the barrier replay
// in the same canonical order).
func (s *System) SetCrashSink(sink crashpoint.Sink) {
	s.sink = sink
	for _, c := range s.cores {
		c.eng.SetCrashSink(sink)
	}
	s.shared.SetCrashSink(sink)
}

// stepWorkers resolves the worker count for the parallel phase.
func (s *System) stepWorkers() int {
	if s.sink != nil {
		return 1
	}
	w := s.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(s.cores) {
		w = len(s.cores)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// stepEpoch advances one core by up to one epoch's operations against
// its private data path. Shared-region ops either read the frozen coherent
// view (non-Modified lines) or defer to the barrier. Runs concurrently
// with other cores' epochs: it touches only core-local state plus
// read-locked stripes of the frozen shared view/directory.
func (s *System) stepEpoch(c *coreSim) error {
	c.deferred = c.deferred[:0]
	for n := 0; n < s.plan.epochOps; n++ {
		for c.pos == c.cur.Len() {
			c.cur = *c.buf
			if !c.src.NextBatch(&c.cur) {
				c.done = true
				return nil
			}
			c.pos = 0
		}
		op := c.cur.Op(c.pos)
		c.pos++
		idx := c.opIndex
		c.opIndex++
		op, shared := s.plan.Rewrite(c.id, idx, op)
		if !shared {
			if err := c.eng.Step(op); err != nil {
				return err
			}
			continue
		}
		block := addr.BlockOf(op.Addr)
		if st, _ := s.shared.Directory().Peek(block); op.Kind == trace.Store || st == coherence.Modified {
			c.deferred = append(c.deferred, op)
			c.eng.ExternalOp(op.Gap, 0) // latency charged at the barrier
		} else {
			// Non-Modified line: no SecPB holds it, so the coherent
			// view is current and frozen until the barrier.
			s.shared.PeekView(block)
			c.eng.ExternalOp(op.Gap, SharedReadCyc)
			c.immediateReads++
		}
	}
	return nil
}

// barrier replays every core's deferred shared ops in canonical order —
// ascending core id, program order within a core — through the MESI
// protocol, charges each core the accumulated protocol latency, and
// closes the drain epoch on every memory channel (deferred tuples
// flush, staged BMT walks commit in one coalesced sweep per shard).
func (s *System) barrier() error {
	for _, c := range s.cores {
		var stall uint64
		for i := range c.deferred {
			op := &c.deferred[i]
			if op.Kind == trace.Store {
				if s.sink != nil {
					// The shared store's point of persistency is its
					// barrier-time SecPB acceptance, mirroring the
					// engine's store-accept hook placement.
					s.sink.CrashPoint(crashpoint.StoreAccept, addr.BlockOf(op.Addr))
				}
				cc, err := s.shared.StoreEx(c.id, op.Addr, int(op.Size), op.Data)
				if err != nil {
					return fmt.Errorf("engine: core %d shared store: %w", c.id, err)
				}
				stall += cc.Cycles
			} else {
				_, cc, err := s.shared.LoadEx(c.id, op.Addr)
				if err != nil {
					return fmt.Errorf("engine: core %d shared load: %w", c.id, err)
				}
				stall += cc.Cycles
			}
		}
		if stall > 0 {
			c.eng.AddStall(stall)
		}
		if c.immediateReads > 0 {
			s.shared.Directory().NoteImmediateRead(c.immediateReads)
			c.immediateReads = 0
		}
		c.eng.EpochBarrier()
	}
	s.shared.Controller().FlushStaged()
	s.shared.Controller().CompleteSweep()
	s.epochs++
	return nil
}

// Run drains every core's source to completion: epochs of parallel
// per-core stepping separated by serialized barriers. The result stream
// is identical at any worker count.
func (s *System) Run() error {
	for {
		active := make([]*coreSim, 0, len(s.cores))
		for _, c := range s.cores {
			if !c.done {
				active = append(active, c)
			}
		}
		if len(active) == 0 {
			break
		}
		if w := s.stepWorkers(); w > 1 {
			if _, err := runner.Map(context.Background(), w, active, func(_ context.Context, _ int, c *coreSim) (struct{}, error) {
				return struct{}{}, s.stepEpoch(c)
			}); err != nil {
				return err
			}
		} else {
			for _, c := range active {
				if err := s.stepEpoch(c); err != nil {
					return err
				}
			}
		}
		if err := s.barrier(); err != nil {
			return err
		}
	}
	for _, c := range s.cores {
		if err := c.eng.Finish(); err != nil {
			return err
		}
	}
	return nil
}

// Epochs returns how many drain-epoch barriers the run crossed.
func (s *System) Epochs() uint64 { return s.epochs }

// CrashDrainAll drains every battery-backed buffer in the documented
// cross-core order — ascending core id over the private SecPBs (FIFO
// within each), then ascending core id over the shared-region SecPBs —
// and settles every controller. This is the live-system form of the
// recovery replay order recovery.SystemJournal seals.
func (s *System) CrashDrainAll() (int, error) {
	total := 0
	for id, c := range s.cores {
		n, err := c.eng.CrashDrain()
		if err != nil {
			return total, fmt.Errorf("engine: core %d crash drain: %w", id, err)
		}
		total += n
	}
	n, err := s.shared.CrashDrainAll()
	if err != nil {
		return total, err
	}
	return total + n, nil
}

// MCResult aggregates a multi-core run: per-core results, whole-socket
// throughput, coherence-protocol activity, and the battery-sizing
// occupancy measurements.
type MCResult struct {
	Benchmark string        `json:"benchmark"`
	Scheme    config.Scheme `json:"scheme"`
	Cores     int           `json:"cores"`
	Cycles    uint64        `json:"cycles"` // makespan: max core clock
	Instrs    uint64        `json:"instructions"`
	Loads     uint64        `json:"loads"`
	Stores    uint64        `json:"stores"`
	AggIPC    float64       `json:"agg_ipc"` // total instrs / makespan
	Epochs    uint64        `json:"epochs"`

	// Shared-region / MESI activity.
	MESI        coherence.MESIStats `json:"mesi"`
	Migrations  uint64              `json:"migrations"`
	ReadFlushes uint64              `json:"read_flushes"`

	// Battery sizing: measured high-water SecPB occupancy, summed over
	// cores (private engine buffer + the core's shared-region buffer).
	// Per-core peaks need not coincide in time, so the sum is the
	// conservative measured bound a battery must fund, still ≤ the
	// all-slots-full worst case of cores × capacity.
	PeakOccupancy int   `json:"peak_occupancy"`
	PeakPerCore   []int `json:"peak_per_core"`

	Media nvm.MediaStats `json:"media"`

	PerCore []Result `json:"per_core"`
}

// Collect gathers the multi-core result after Run.
func (s *System) Collect() MCResult {
	r := MCResult{
		Benchmark: s.prof.Name,
		Scheme:    s.cfg.Scheme,
		Cores:     len(s.cores),
		Epochs:    s.epochs,
		MESI:      s.shared.Directory().Stats(),
	}
	r.Migrations, r.ReadFlushes = s.shared.Stats()
	for i, c := range s.cores {
		cr := c.eng.Collect()
		r.PerCore = append(r.PerCore, cr)
		r.Instrs += cr.Instructions
		r.Loads += cr.Loads
		r.Stores += cr.Stores
		if cr.Cycles > r.Cycles {
			r.Cycles = cr.Cycles
		}
		peak := cr.PeakOccupancy + s.shared.SecPB(i).PeakLen()
		r.PeakPerCore = append(r.PeakPerCore, peak)
		r.PeakOccupancy += peak
		r.Media.Add(c.eng.MediaStats())
	}
	r.Media.Add(s.shared.Controller().MediaStats())
	if r.Cycles > 0 {
		r.AggIPC = float64(r.Instrs) / float64(r.Cycles)
	}
	return r
}

// IntegrityErr returns the first core's integrity violation, if any.
func (r *MCResult) IntegrityErr() error {
	for i := range r.PerCore {
		if err := r.PerCore[i].IntegrityErr; err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	return nil
}

// String renders a one-line summary.
func (r MCResult) String() string {
	return fmt.Sprintf("%s/%s x%d: %d instrs in %d cycles (agg IPC %.2f, %d migrations, %d read flushes, peak occ %d)",
		r.Benchmark, r.Scheme, r.Cores, r.Instrs, r.Cycles, r.AggIPC, r.MESI.Migrations, r.MESI.ReadFlushes, r.PeakOccupancy)
}

// RunSystem simulates nops operations per core of the named profile
// under cfg and returns the aggregate result — the multi-core analogue
// of RunBenchmark. Deterministic in (cfg, profile) at any worker count.
func RunSystem(cfg config.Config, prof workload.Profile, nops uint64) (MCResult, error) {
	sys, err := NewSystem(cfg, prof, ExperimentKey, nops)
	if err != nil {
		return MCResult{}, err
	}
	if err := sys.Run(); err != nil {
		return MCResult{}, err
	}
	res := sys.Collect()
	if err := res.IntegrityErr(); err != nil {
		return res, fmt.Errorf("engine: integrity violation during healthy run: %w", err)
	}
	return res, nil
}
