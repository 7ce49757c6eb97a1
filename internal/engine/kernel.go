package engine

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/core"
	"secpb/internal/mem"
	"secpb/internal/trace"
)

// This file is the scheme-specialized execution kernel: a monomorphic
// per-(scheme, knob-set) step path instantiated at engine construction.
// Every config-invariant decision — secure vs. insecure, which tuple
// elements the scheme generates early, counter-cache vs. PM counter
// fetch cost, speculative vs. blocking integrity verification, crash-
// sink presence, the DVI-coalescing ablation — is resolved once into
// precomputed cycle constants and a class tag, so the per-op path pays
// none of the interpreter branches the generic path re-evaluates per
// store. The generic doLoad/doStore path is retained verbatim as the
// differential oracle: kernel and generic replay are asserted
// byte-identical (results, artifacts, and functional memory images) by
// kernel_test.go, including under fuzzing.
//
// The kernel engages only where it is provably equivalent:
//   - non-SP SecPB schemes (SP has its own doStoreSP path and no SecPB),
//   - no crash sink installed (sinks need the per-point callbacks), and
//   - DVI coalescing enabled (the ablation redoes per-entry work on
//     every store, which only the generic accept path models).
//
// Everything else falls back to the generic interpreter, and
// SetCrashSink re-resolves the choice whenever a sink comes or goes.

// defaultKernels is the package-wide default for newly built engines:
// nonzero = specialized kernels (the default), zero = generic
// interpreter. It steers host wall-clock strategy only — results are
// bit-identical either way. It is deliberately NOT a config.Config
// field: experiment cell keys hash the config, and a wall-clock knob
// must never perturb content keys (the persistent cell cache shares
// entries across processes and knob settings).
var defaultKernels atomic.Int32 // 0 = on (default), 1 = off

// SetDefaultKernels sets the package default for engines that do not
// pin their own choice via SetKernels.
func SetDefaultKernels(on bool) {
	if on {
		defaultKernels.Store(0)
	} else {
		defaultKernels.Store(1)
	}
}

// DefaultKernels reports the package default.
func DefaultKernels() bool { return defaultKernels.Load() == 0 }

// kernelClass selects the step dispatch.
type kernelClass uint8

const (
	kcGeneric kernelClass = iota // interpreter path (oracle)
	kcSecPB                      // specialized non-SP SecPB kernel
)

// kernel holds the constants the specialized step path needs, hoisted
// out of config.Config at engine construction (PMReadCycles alone is a
// float multiply per call on the generic path).
type kernel struct {
	class     kernelClass
	port      uint64 // SecPBAccessCyc
	allocPort uint64 // extra port cycles for new entries (OBCM: +port)
	ctrHit    uint64 // counter-cache access cycles
	pmRead    uint64 // PMReadCycles(): counter/BMT-node fetch from PM
	aes       uint64 // AESLatency
	mac       uint64 // MACLatency (also per BMT level)
	entries   int    // SecPBEntries (backflow limit)
	loadCheck bool   // secure && !Speculative: loads wait for MAC+BMT
}

// refreshKernel re-resolves the engine's step dispatch from its config,
// the sink state, and the enable flag. Called at construction and from
// SetCrashSink / SetKernels.
func (e *Engine) refreshKernel() {
	e.kern = kernel{}
	e.l1 = e.hier.L1()
	if !e.kernEnabled || e.sink != nil || e.spb == nil || e.cfg.DisableDVICoalescing {
		return
	}
	k := kernel{
		class:   kcSecPB,
		port:    e.cfg.SecPBAccessCyc,
		ctrHit:  e.cfg.CtrCache.AccessCycles,
		pmRead:  e.cfg.PMReadCycles(),
		aes:     e.cfg.AESLatency,
		mac:     e.cfg.MACLatency,
		entries: e.cfg.SecPBEntries,
	}
	if e.cfg.Scheme == config.SchemeOBCM {
		k.allocPort = k.port
	}
	if e.mc.Secure() && !e.cfg.Speculative {
		k.loadCheck = true
	}
	e.kern = k
}

// SetKernels pins this engine's step-path choice, overriding the
// package default: true = specialized kernels (where eligible), false =
// generic interpreter. Results are bit-identical either way.
func (e *Engine) SetKernels(on bool) {
	e.kernEnabled = on
	e.refreshKernel()
}

// Kernelized reports whether the specialized step path is active.
func (e *Engine) Kernelized() bool { return e.kern.class == kcSecPB }

// loadFast is the kernel load path: the L1 probe is issued against the
// cached *mem.Cache with the read-specialized probe; everything past an
// L1 hit (the overwhelmingly common case) is in loadMissSlow.
func (e *Engine) loadFast(a uint64) {
	e.loads++
	blockAddr := a &^ (addr.BlockBytes - 1)
	if e.l1.AccessRead(blockAddr) {
		return
	}
	e.loadMissSlow(blockAddr)
}

// loadMissSlow mirrors the generic doLoad after an L1 miss, with the
// config-invariant latencies read from the kernel. The generic path's
// hierarchy walk rescans the L1 set whose miss the caller just
// observed; the kernel recounts that probe arithmetically
// (LoadAfterL1Miss), so cache statistics stay bit-identical without
// the redundant scan.
func (e *Engine) loadMissSlow(blockAddr uint64) {
	block := addr.Block(blockAddr)
	if e.spb.Lookup(block) != nil {
		e.pbServedLoads++
		e.l1.Fill(blockAddr, true, true)
		e.stall(e.kern.port)
		return
	}
	res := e.hier.LoadAfterL1Miss(blockAddr)
	extra := uint64(0)
	if res.PMAccess {
		_, cost, err := e.mc.FetchBlock(block)
		if err != nil && e.integrityErr == nil {
			e.integrityErr = err
		}
		if e.kern.loadCheck {
			extra = e.kern.mac + uint64(cost.BMTLevels)*e.kern.mac
		}
	}
	e.stall(res.Cycles - e.hier.L1().Latency() + extra)
}

// storeFast is the kernel store path. The common case — the store
// coalesces into a resident entry — runs straight through: memory
// update, hierarchy touch, one index probe that doubles as the
// coalescing write plus the scheme's per-store early work, and the
// acceptance timing chain with all constants preresolved. Allocation
// (roughly one store in NWPE) takes storeAllocSlow.
func (e *Engine) storeFast(a uint64, size uint8, data uint64) error {
	e.stores++
	block := addr.BlockOf(a)
	off := int(a - uint64(block))

	// Consecutive stores overwhelmingly target the block they just
	// wrote; ptable block pointers never move, so the previous lookup
	// stays valid and the radix walk is skipped on a repeat.
	blk := e.lastStoreBlk
	if block != e.lastStoreBlock || blk == nil {
		blk, _ = e.memory.GetOrCreate(block.Index())
		e.lastStoreBlock, e.lastStoreBlk = block, blk
	}
	if size == 8 {
		binary.LittleEndian.PutUint64(blk[off:off+8], data)
	} else {
		for i := 0; i < int(size); i++ {
			blk[off+i] = byte(data >> (8 * i))
		}
	}

	e.hier.StoreTouch(uint64(block))
	e.reapDrains(e.now)

	accStart := e.now
	if e.pbPortFree > accStart {
		accStart = e.pbPortFree
	}

	found, xored, maced := e.spb.CoalesceStore(block, off, int(size), data)
	if !found {
		return e.storeAllocSlow(block, off, size, data, blk, accStart)
	}

	// Coalesced store: no counter step, no OTP, no BMT walk (the DVI
	// per-entry work ran at allocation), so the Figure 4 dependency
	// graph collapses to port → [cipher XOR] → [MAC].
	unblock := accStart + e.kern.port
	if xored {
		unblock += 1 + e.kern.port
	}
	if maced {
		unblock += e.kern.mac
	}
	e.pbPortFree = unblock
	e.lastUnblock = unblock
	e.now = e.sb.Push(e.now, unblock)
	return e.storeDrainTail()
}

// storeAllocSlow is the kernel store path's allocation case: the
// backflow test, the full accept (with cost accounting), and the
// complete early-work timing chain — the generic doStore sequence from
// the backflow test on, with kernel constants.
func (e *Engine) storeAllocSlow(block addr.Block, off int, size uint8, data uint64, blk *[addr.BlockBytes]byte, accStart uint64) error {
	if e.virtualOcc >= e.kern.entries && e.spb.Lookup(block) == nil {
		if len(e.inflight) == 0 {
			if err := e.scheduleDrain(accStart); err != nil {
				return err
			}
		}
		wait := e.inflight[0]
		if wait > accStart {
			e.backpressure += wait - accStart
			accStart = wait
		}
		e.reapDrains(accStart)
	}

	var cost core.AcceptCost
	if err := e.spb.AcceptStoreInit(0, block, off, int(size), data, blk, accStart, &cost); err != nil {
		return fmt.Errorf("engine: accept store: %w", err)
	}
	port := e.kern.port
	if cost.Allocated {
		e.virtualOcc++
		if e.virtualOcc > e.peakOcc {
			e.peakOcc = e.virtualOcc
		}
		port += e.kern.allocPort
	}

	t0 := accStart + port
	tCtr := t0
	if cost.CounterStep {
		if cost.CtrCost.CtrFetchPM {
			tCtr += e.kern.pmRead
		} else {
			tCtr += e.kern.ctrHit
		}
	}
	tChain := tCtr
	if cost.OTPGenerated {
		tChain += e.kern.aes
	}
	if cost.CipherXOR {
		tChain += 1 + e.kern.port
	}
	if cost.MACGenerated {
		tChain += e.kern.mac
	}
	tBMT := tCtr
	if cost.BMTLevels > 0 {
		tBMT += uint64(cost.BMTLevels)*e.kern.mac +
			uint64(cost.BMTNodeFetch)*e.kern.pmRead
	}
	unblock := tChain
	if tBMT > unblock {
		unblock = tBMT
	}
	e.pbPortFree = unblock
	e.lastUnblock = unblock
	e.now = e.sb.Push(e.now, unblock)
	return e.storeDrainTail()
}

// storeDrainTail is the watermark-drain epilogue every store path
// (generic and kernel) runs: start draining above the high watermark,
// continue to the low one, and commit the burst's staged BMT walks in
// one coalesced sweep.
func (e *Engine) storeDrainTail() error {
	if e.spb.AboveHigh() {
		e.draining = true
	}
	drained := false
	for e.draining && e.spb.AboveLow() {
		if err := e.scheduleDrain(e.now); err != nil {
			return err
		}
		drained = true
	}
	if !e.spb.AboveLow() {
		e.draining = false
	}
	if drained {
		// The drain burst is one epoch: commit its staged BMT walks with
		// a single coalesced sweep (timing/Cost accounting is unchanged —
		// the sweep only affects host wall-clock).
		e.mc.CompleteSweep()
	}
	return nil
}

// replayBatch replays one validated batch. With the kernel engaged the
// loop is genuinely columnar: the block column is bulk-decomposed up
// front via internal/addr, ops are read straight out of the columns
// (no per-op trace.Op materialization and no per-op Validate), the CPI
// accumulation is inlined against a batch-local cpiTab reference with
// the instruction counter held in a register across the batch (the
// float trajectory performs the identical IEEE operations in identical
// order, so every derived cycle count is bit-identical), and L1-hit
// loads — the bulk of every workload — complete inside the loop with a
// single set-indexed SoA probe.
func (e *Engine) replayBatch(b *trace.Batch) error {
	if e.kern.class != kcSecPB {
		for i, n := 0, b.Len(); i < n; i++ {
			if err := e.step(b.Op(i)); err != nil {
				return err
			}
		}
		return nil
	}

	kinds, addrs, sizes, datas, gaps := b.Kinds, b.Addrs, b.Sizes, b.Datas, b.Gaps
	e.blockCol = addr.AppendBlocks(e.blockCol[:0], addrs)
	blocks := e.blockCol
	l1 := e.l1
	cpiTab := &e.cpiTab
	nonMemCPI := e.prof.NonMemCPI
	instrs := uint64(0)

	for i := range kinds {
		// advance(), inlined: same accumulator, same operation order.
		n := uint64(gaps[i]) + 1
		instrs += n
		f := e.fracCPI
		if n < uint64(len(cpiTab)) {
			f += cpiTab[n]
		} else {
			f += float64(n) * nonMemCPI
		}
		whole := uint64(int64(f)) // see advance: value-identical, cheaper
		e.fracCPI = f - float64(whole)
		e.now += whole

		switch kinds[i] {
		case trace.Load:
			e.loads++
			if l1.AccessRead(uint64(blocks[i])) {
				continue
			}
			e.loadMissSlow(uint64(blocks[i]))
		case trace.Store:
			if err := e.storeFastBlock(blocks[i], addrs[i], sizes[i], datas[i]); err != nil {
				e.instrs += instrs
				return err
			}
		default: // trace.Fence
			if d := e.sb.DrainedBy(); d > e.now {
				e.now = d
			}
		}
	}
	e.instrs += instrs
	return nil
}

// storeFastBlock is storeFast with the block already decomposed (the
// batch replay loop reads it from the precomputed block column).
func (e *Engine) storeFastBlock(block addr.Block, a uint64, size uint8, data uint64) error {
	e.stores++
	off := int(a - uint64(block))

	blk := e.lastStoreBlk
	if block != e.lastStoreBlock || blk == nil {
		blk, _ = e.memory.GetOrCreate(block.Index())
		e.lastStoreBlock, e.lastStoreBlk = block, blk
	}
	if size == 8 {
		binary.LittleEndian.PutUint64(blk[off:off+8], data)
	} else {
		for i := 0; i < int(size); i++ {
			blk[off+i] = byte(data >> (8 * i))
		}
	}

	e.hier.StoreTouch(uint64(block))
	e.reapDrains(e.now)

	accStart := e.now
	if e.pbPortFree > accStart {
		accStart = e.pbPortFree
	}

	found, xored, maced := e.spb.CoalesceStore(block, off, int(size), data)
	if !found {
		return e.storeAllocSlow(block, off, size, data, blk, accStart)
	}

	unblock := accStart + e.kern.port
	if xored {
		unblock += 1 + e.kern.port
	}
	if maced {
		unblock += e.kern.mac
	}
	e.pbPortFree = unblock
	e.lastUnblock = unblock
	e.now = e.sb.Push(e.now, unblock)
	return e.storeDrainTail()
}

// l1Cache returns the cached L1 pointer (set by refreshKernel) for
// tests that assert the kernel wiring.
func (e *Engine) l1Cache() *mem.Cache { return e.l1 }
