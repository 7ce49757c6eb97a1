// Package engine is the whole-system simulator: it replays a memory-
// operation stream against the modelled core, cache hierarchy, SecPB,
// memory controller and PM, producing both timing results (cycles, IPC,
// slowdowns) and a functional persistent state that the recovery package
// can crash and verify at any point.
//
// The engine is a mechanistic cycle-accounting model rather than an
// event-driven simulator: time advances with each retired instruction,
// and shared resources (the SecPB port, the AES/MAC engines, the
// one-in-flight BMT walker, the MC drain pipeline, PM write bandwidth)
// are modelled as busy-until clocks. The paper's own analytical
// validation (Section VI.B) shows the evaluated effects are dominated by
// exactly these serializations.
package engine

import (
	"fmt"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/core"
	"secpb/internal/crashpoint"
	"secpb/internal/mem"
	"secpb/internal/nvm"
	"secpb/internal/ptable"
	"secpb/internal/stats"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// Engine simulates one core plus its memory system for one scheme.
type Engine struct {
	cfg    config.Config
	timing Timing
	prof   workload.Profile

	mc   *nvm.Controller
	spb  *core.SecPB // nil for the SP baseline
	hier *mem.Hierarchy
	sb   *mem.StoreBuffer

	// Step path state (see kernel.go): kern holds the preresolved
	// per-scheme constants, l1 the cached L1 pointer the hot probes
	// use, and blockCol the batch replay loop's reusable
	// bulk-decomposed block column.
	kern     kernel
	l1       *mem.Cache
	blockCol []addr.Block
	// lastStoreBlock/lastStoreBlk memoize the store path's most recent
	// memory-image lookup (ptable pointers are stable).
	lastStoreBlock addr.Block
	lastStoreBlk   *[addr.BlockBytes]byte

	// memory is the program's plaintext view of every written block —
	// the reference the crash observer compares recovery against, and
	// the source of initial contents for PB allocations. It is a paged
	// direct-index table keyed by block index: the per-store
	// read-modify-write is a radix lookup (no map hashing), block
	// storage never moves so the returned pointers stay valid, and one
	// 32KB page allocation covers the first touches of 512 neighbouring
	// blocks (the table doubles as the block arena).
	memory *ptable.Table[[addr.BlockBytes]byte]

	// Cycle-accounting clocks.
	now         uint64 // retirement time of the last instruction
	pbPortFree  uint64 // SecPB port: frees at the unblocking signal
	drainFree   uint64 // MC drain pipeline
	spUnitFree  uint64 // SP baseline MC pipeline
	lastUnblock uint64 // previous store's unblock time (in-order)

	// Virtual SecPB occupancy: functional drains happen at scheduling
	// time, but the slot stays occupied until the drain completes.
	inflight []uint64 // completion times of scheduled drains (FIFO)
	// inflightBuf is the backing array inflight slides through; see
	// scheduleDrain.
	inflightBuf []uint64
	draining    bool // watermark drain in progress
	virtualOcc  int
	peakOcc     int // high-water virtual occupancy (battery sizing)

	// gapHist measures the draining + sec-sync window the battery must
	// be able to cover (the gaps of Figure 3); each entry's point of
	// persistency rides on the entry itself (pb.Entry.AllocCycle).
	gapHist *stats.Histogram

	// sink, when non-nil, receives the store-accept crash point; the
	// same sink is propagated to the SecPB and controller by
	// SetCrashSink. Nil in normal runs: a disabled pipeline costs one
	// pointer compare per store and allocates nothing.
	sink crashpoint.Sink

	// Statistics.
	instrs        uint64
	loads, stores uint64
	loadStall     uint64
	backpressure  uint64 // cycles stores waited on a full SecPB
	pbServedLoads uint64
	integrityErr  error
	fracCPI       float64 // fractional cycle accumulator
	// cpiTab[n] = float64(n) * prof.NonMemCPI for small instruction
	// counts, precomputed so advance skips the int→float convert and
	// multiply on the per-op path. The products are the same IEEE
	// operations advance used to perform, so the accumulator trajectory
	// (and every derived cycle count) is bit-identical.
	cpiTab [64]float64

	// batch is RunBatch's own buffer, allocated on the first call and
	// kept across Reset; filling sources (the workload generator)
	// append into it. view is the header RunBatch hands the source: a
	// fresh copy of batch's before every NextBatch, so a source that
	// installs read-only views of its own columns (cursors, recorded
	// traces) overwrites only view, and a later filling source never
	// appends into another source's ops.
	batch *trace.Batch
	view  trace.Batch

	// ops counts the ops executed since Reset, and opAt is the position
	// of the op in flight, recorded only where a crash point can fire:
	// at a store and at the end of a run (where opAt == ops). Loads and
	// fences fire none.
	ops  int
	opAt int
}

// New builds an engine for the given configuration and workload profile.
// It is Reset on a zero Engine.
func New(cfg config.Config, prof workload.Profile, key []byte) (*Engine, error) {
	e := new(Engine)
	if err := e.Reset(cfg, prof, key); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset returns the engine to exactly the state New(cfg, prof, key)
// returns, keeping what it already allocated: the cache hierarchy when
// its geometry is unchanged, the plaintext image's pages, and the
// controller with its stores and crypto engine (nvm.Controller.Reset
// decides which of those survive a change of scheme, seed or key). The
// SecPB, store buffer and gap histogram are small and rebuilt. An
// invalid cfg or prof is refused with the engine untouched; after any
// other error the engine must not be used until a later Reset succeeds.
func (e *Engine) Reset(cfg config.Config, prof workload.Profile, key []byte) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := prof.Validate(); err != nil {
		return err
	}
	mc := e.mc
	if mc == nil {
		mc = new(nvm.Controller)
	}
	if err := mc.Reset(cfg, key); err != nil {
		return err
	}
	hier := e.hier
	if hier != nil && sameGeometry(e.cfg, cfg) {
		hier.Reset()
	} else {
		hier = mem.NewHierarchy(cfg)
	}
	memory := e.memory
	if memory != nil {
		memory.Reset()
	} else {
		memory = ptable.New[[addr.BlockBytes]byte]()
	}
	*e = Engine{
		cfg:         cfg,
		timing:      DefaultTiming(),
		prof:        prof,
		mc:          mc,
		hier:        hier,
		sb:          mem.NewStoreBuffer(cfg.StoreBufferCap),
		memory:      memory,
		gapHist:     stats.NewHistogram(256, 512),
		blockCol:    e.blockCol[:0],
		inflightBuf: e.inflightBuf,
		batch:       e.batch,
	}
	for n := range e.cpiTab {
		e.cpiTab[n] = float64(n) * prof.NonMemCPI
	}
	if cfg.Scheme != config.SchemeSP {
		spb, err := core.New(cfg, mc)
		if err != nil {
			return err
		}
		e.spb = spb
	}
	e.kern = newKernel(cfg, mc.Secure())
	e.l1 = hier.L1()
	return nil
}

// sameGeometry reports whether a and b build identical cache
// hierarchies.
func sameGeometry(a, b config.Config) bool {
	return a.L1 == b.L1 && a.L2 == b.L2 && a.L3 == b.L3 && a.PMReadCycles() == b.PMReadCycles()
}

// Controller exposes the memory controller (for recovery experiments).
func (e *Engine) Controller() *nvm.Controller { return e.mc }

// Config returns the configuration the engine was booted with.
func (e *Engine) Config() config.Config { return e.cfg }

// MediaStats reports the degraded-mode activity of the run so far: the
// controller's program-and-verify retries, bad-block remaps, and the PM
// fault injector's event counts. All zeros with the fault model off.
func (e *Engine) MediaStats() nvm.MediaStats { return e.mc.MediaStats() }

// SecPB exposes the persist buffer (nil under the SP baseline).
func (e *Engine) SecPB() *core.SecPB { return e.spb }

// Memory returns a snapshot of the program's plaintext view (the crash
// observer's reference for blocks that reached the point of
// persistency). The snapshot is rebuilt per call; per-block reads on hot
// paths should use MemoryBlock instead.
func (e *Engine) Memory() map[addr.Block][addr.BlockBytes]byte {
	out := make(map[addr.Block][addr.BlockBytes]byte, e.memory.Len())
	e.memory.Range(func(idx uint64, p *[addr.BlockBytes]byte) bool {
		out[addr.FromIndex(idx)] = *p
		return true
	})
	return out
}

// MemoryBlock returns the plaintext view of one block and whether the
// program ever wrote it.
func (e *Engine) MemoryBlock(b addr.Block) ([addr.BlockBytes]byte, bool) {
	if p := e.memory.Lookup(b.Index()); p != nil {
		return *p, true
	}
	return [addr.BlockBytes]byte{}, false
}

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// SetCrashSink installs (or, with nil, removes) a crash-injection sink
// across the whole pipeline: the engine's store-accept point, the
// SecPB's allocation point, and the controller's drain-path points.
func (e *Engine) SetCrashSink(s crashpoint.Sink) {
	e.sink = s
	if e.spb != nil {
		e.spb.SetCrashSink(s)
	}
	e.mc.SetCrashSink(s)
}

// advance adds non-memory instruction time: gap instructions plus the
// memory instruction itself, at the profile's baseline CPI.
func (e *Engine) advance(gap uint32) {
	n := uint64(gap) + 1
	e.instrs += n
	if n < uint64(len(e.cpiTab)) {
		e.fracCPI += e.cpiTab[n]
	} else {
		e.fracCPI += float64(n) * e.prof.NonMemCPI
	}
	// Convert through int64: the accumulator is a handful of op-CPIs
	// (nowhere near 2^63), and the signed truncation compiles to one
	// instruction on amd64 where the unsigned form is a branchy
	// sequence. The value — and so the cycle trajectory — is identical.
	whole := uint64(int64(e.fracCPI))
	e.fracCPI -= float64(whole)
	e.now += whole
}

// OpIndex returns the position, counted from the last Reset, of the op
// in flight when a crash point fires; at the end of a run it is the
// number of ops executed. It is kept up to date only where a crash
// point can fire, so read it from a crash sink.
func (e *Engine) OpIndex() int { return e.opAt }

// Step executes one memory operation.
func (e *Engine) Step(op trace.Op) error {
	if err := op.Validate(); err != nil {
		return err
	}
	e.opAt = e.ops
	e.ops++
	e.advance(op.Gap)
	switch op.Kind {
	case trace.Load:
		e.loads++
		blockAddr := op.Addr &^ (addr.BlockBytes - 1)
		if !e.l1.AccessRead(blockAddr) {
			e.loadMiss(blockAddr)
		}
	case trace.Store:
		return e.store(addr.BlockOf(op.Addr), op.Addr, op.Size, op.Data)
	case trace.Fence:
		// Strict persistency on a persistent hierarchy: fences are
		// no-ops for persistency; they only drain the store buffer.
		if d := e.sb.DrainedBy(); d > e.now {
			e.now = d
		}
	}
	return nil
}

// StepBatch executes one columnar batch of operations: validated once
// up front, then replayed through the same columnar loop RunBatch
// uses. Callers that receive ops in externally-chosen chunks (the
// trace-streaming service steps one uploaded segment at a time) get the
// columnar fast path without committing to a whole-source Run; the
// result trajectory is identical to the equivalent Step sequence at any
// chunking, the same contract RunBatch's batching carries.
func (e *Engine) StepBatch(b *trace.Batch) error {
	if err := b.Validate(); err != nil {
		return err
	}
	return e.replayBatch(b)
}

// Run is RunBatch under its older name.
func (e *Engine) Run(src trace.BatchSource) error { return e.RunBatch(src) }

// RunBatch drains the source: ops arrive in columnar chunks, each
// validated once up front and replayed with no per-op interface
// dispatch. It returns the first error (an invalid op, or an integrity
// violation, which indicates a simulator bug or an injected attack).
// Every chunking of the same ops gives the same result.
func (e *Engine) RunBatch(src trace.BatchSource) error {
	if e.batch == nil {
		e.batch = trace.NewBatch(trace.DefaultBatchCap)
	}
	for {
		e.view = *e.batch
		if !src.NextBatch(&e.view) {
			break
		}
		if err := e.view.Validate(); err != nil {
			return err
		}
		if err := e.replayBatch(&e.view); err != nil {
			return err
		}
	}
	return e.finishRun()
}

// finishRun closes the region of interest. Execution time includes
// draining the core's store buffer (the last store must be persistently
// accepted) but not the PB drain, which proceeds in the background;
// deferred drain tuples and staged BMT walks are committed so post-run
// inspection starts from a settled controller.
func (e *Engine) finishRun() error {
	e.opAt = e.ops
	if d := e.sb.DrainedBy(); d > e.now {
		e.now = d
	}
	e.mc.FlushStaged()
	e.mc.CompleteSweep()
	return nil
}

// ExternalOp accounts for one memory operation executed outside this
// core's private data path — a shared-region access handled by the
// coherence layer in engine.System. The op's instruction gap retires at
// the profile CPI like any other op, and stall cycles (directory access,
// remote flush/migration latency) charge against retirement. The private
// caches, SecPB and controller are untouched.
func (e *Engine) ExternalOp(gap uint32, stall uint64) {
	e.advance(gap)
	e.now += stall
	e.loadStall += stall
}

// AddStall charges stall cycles accumulated on the core's behalf at a
// drain-epoch barrier (deferred shared-op latency).
func (e *Engine) AddStall(cycles uint64) {
	e.now += cycles
	e.loadStall += cycles
}

// EpochBarrier settles the controller at a drain-epoch boundary in
// multi-core runs: deferred drain tuples flush and staged BMT walks
// commit in one coalesced sweep. Functional state and Cost accounting
// are unchanged (the staging layer is wall-clock-only, see DESIGN.md
// §5.6), so calling this at any frequency never alters results.
func (e *Engine) EpochBarrier() {
	e.mc.FlushStaged()
	e.mc.CompleteSweep()
}

// Occupancy returns the current virtual SecPB occupancy (resident
// entries including scheduled drains still in flight).
func (e *Engine) Occupancy() int { return e.virtualOcc }

// PeakOccupancy returns the run's high-water virtual SecPB occupancy.
func (e *Engine) PeakOccupancy() int { return e.peakOcc }

// Finish closes the region of interest exactly as Run does — store
// buffer drained, staging settled — for callers that step the engine
// manually (engine.System drives per-core epochs itself).
func (e *Engine) Finish() error { return e.finishRun() }

// CrashDrain flushes the core's SecPB on battery power (FIFO order) and
// settles the engine's occupancy tracking: after it returns, every
// entry — including drains that were in flight — is persisted.
func (e *Engine) CrashDrain() (int, error) {
	if e.spb == nil {
		return 0, nil
	}
	n, _, err := e.spb.CrashDrain()
	e.inflight = e.inflight[:0]
	e.virtualOcc = 0
	return n, err
}

// stall charges a retirement stall of cycles/MLP (overlapped misses).
func (e *Engine) stall(cycles uint64) {
	s := cycles / e.timing.MLP
	e.loadStall += s
	e.now += s
}

// doStoreSP models the SP baseline: every store streams through the
// MC's pipelined tuple-update path (no coalescing, SPoP at the MC).
func (e *Engine) doStoreSP(block addr.Block, data *[addr.BlockBytes]byte) error {
	levels := 0
	if h := e.mc.Heights(); h != nil {
		levels = h.WalkLevels(block.CounterLine())
	}
	busy := e.timing.SPBaseII + uint64(levels)*e.timing.SPLevelII
	start := max(e.now, e.spUnitFree)
	done := start + busy
	e.spUnitFree = done
	e.now = e.sb.Push(e.now, done)
	// Functional write-through persist of the whole block.
	if _, err := e.mc.PersistBlock(block, data, nil); err != nil {
		return fmt.Errorf("engine: SP persist: %w", err)
	}
	return nil
}

// scheduleDrain pops the oldest entry functionally, completes its tuple
// at the MC, and books the drain pipeline time; the SecPB slot frees
// when the drain completes.
func (e *Engine) scheduleDrain(at uint64) error {
	entry, cost, err := e.spb.DrainOne()
	if err != nil {
		return fmt.Errorf("engine: drain: %w", err)
	}
	if entry == nil {
		return nil
	}
	busy := e.timing.DrainBase +
		uint64(cost.Hashes)*e.timing.DrainHashII +
		uint64(cost.AESOps)*e.timing.DrainAESII +
		uint64(cost.PMDataWrites+cost.PMMetaWrites)*e.timing.DrainPMWrite +
		uint64(cost.PMReads)*e.timing.DrainPMRead
	start := max(e.drainFree, at)
	e.drainFree = start + busy
	// Reaping advances inflight's start, so once the view reaches the
	// end of its backing array the live entries move back to the front
	// rather than into a new array. It grows only while the live depth
	// exceeds half the backing array, so steady-state scheduling
	// allocates nothing.
	if len(e.inflight) == cap(e.inflight) && 2*len(e.inflight) <= cap(e.inflightBuf) {
		e.inflight = append(e.inflightBuf[:0], e.inflight...)
	}
	e.inflight = append(e.inflight, e.drainFree)
	if cap(e.inflight) > cap(e.inflightBuf) {
		e.inflightBuf = e.inflight[:cap(e.inflight)]
	}
	// Record the PoP -> SPoP window (draining gap + sec-sync gap): the
	// time this entry spent covered only by the battery guarantee.
	if e.drainFree > entry.AllocCycle {
		e.gapHist.Add(e.drainFree - entry.AllocCycle)
	}
	e.spb.Recycle(entry)
	return nil
}

// reapDrains frees SecPB slots whose drains completed by cycle t.
func (e *Engine) reapDrains(t uint64) {
	i := 0
	for i < len(e.inflight) && e.inflight[i] <= t {
		i++
	}
	if i > 0 {
		e.inflight = e.inflight[i:]
		e.virtualOcc -= i
	}
}
