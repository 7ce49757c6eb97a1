package engine

import (
	"encoding/binary"
	"fmt"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/core"
	"secpb/internal/crashpoint"
	"secpb/internal/trace"
)

// This file is the engine's one execution path. Every config-invariant
// decision — which tuple elements the scheme generates early, counter-
// cache vs. PM counter fetch cost, speculative vs. blocking integrity
// verification — is resolved once at construction into the kernel's
// precomputed cycle constants, so the per-op path re-evaluates none of
// them. The few branches that remain are per-engine facts the model
// itself needs: the SP baseline has no SecPB (spb == nil) and streams
// every store through doStoreSP, a crash sink (nil in normal runs) costs
// one pointer compare per store, and the DVI-coalescing ablation needs
// no branch here at all because SecPB.CoalesceStore reports found=false
// under it and the store takes the full accept.
//
// The generic per-op interpreter this path was specialized from lives
// in oracle_test.go as the differential oracle: results, functional
// memory images and the crash-point sequence are asserted identical
// between the two for every scheme, including under fuzzing.

// kernel holds the constants the step path needs, hoisted out of
// config.Config at engine construction (PMReadCycles alone is a float
// multiply per call).
type kernel struct {
	port      uint64 // SecPBAccessCyc
	allocPort uint64 // extra port cycles for new entries (OBCM: +port)
	ctrHit    uint64 // counter-cache access cycles
	pmRead    uint64 // PMReadCycles(): counter/BMT-node fetch from PM
	aes       uint64 // AESLatency
	mac       uint64 // MACLatency (also per BMT level)
	entries   int    // SecPBEntries (backflow limit)
	loadCheck bool   // secure && !Speculative: loads wait for MAC+BMT
}

// newKernel resolves the step path's constants from the configuration.
func newKernel(cfg config.Config, secure bool) kernel {
	k := kernel{
		port:      cfg.SecPBAccessCyc,
		ctrHit:    cfg.CtrCache.AccessCycles,
		pmRead:    cfg.PMReadCycles(),
		aes:       cfg.AESLatency,
		mac:       cfg.MACLatency,
		entries:   cfg.SecPBEntries,
		loadCheck: secure && !cfg.Speculative,
	}
	if cfg.Scheme == config.SchemeOBCM {
		k.allocPort = k.port
	}
	return k
}

// loadMiss models a data read past an L1 miss (an L1 hit is fully
// pipelined: no retirement stall). The caller's L1 probe has already
// missed, so the hierarchy walk recounts that miss arithmetically
// (LoadAfterL1Miss) instead of rescanning the set.
func (e *Engine) loadMiss(blockAddr uint64) {
	block := addr.Block(blockAddr)
	// The persist buffer is at the L1 level and holds the freshest
	// data: an L1 miss that hits the SecPB is served from it.
	if e.spb != nil && e.spb.Lookup(block) != nil {
		e.pbServedLoads++
		e.l1.Fill(blockAddr, true, true)
		e.stall(e.kern.port)
		return
	}
	res := e.hier.LoadAfterL1Miss(blockAddr)
	extra := uint64(0)
	if res.PMAccess {
		// Functional fetch: decrypt + verify.
		_, cost, err := e.mc.FetchBlock(block)
		if err != nil && e.integrityErr == nil {
			e.integrityErr = err
		}
		// With speculative verification (PoisonIvy) the MAC/BMT checks
		// run off the critical path; without it the load's use waits
		// for the MAC check and the BMT walk.
		if e.kern.loadCheck {
			extra = e.kern.mac + uint64(cost.BMTLevels)*e.kern.mac
		}
	}
	e.stall(res.Cycles - e.l1.Latency() + extra)
}

// store models a persist: the store enters L1D and the SecPB in
// parallel; acceptance latency depends on the scheme's early work. The
// common case — the store coalesces into a resident entry — runs
// straight through: memory update, hierarchy touch, one index probe
// that doubles as the coalescing write plus the scheme's per-store early
// work, and the acceptance timing chain. Allocation (roughly one store
// in NWPE, and every store under the DVI-coalescing ablation) takes
// storeAlloc.
func (e *Engine) store(block addr.Block, a uint64, size uint8, data uint64) error {
	e.stores++
	off := int(a - uint64(block))

	// Functional: update the program view in place. Consecutive stores
	// overwhelmingly target the block they just wrote; ptable block
	// pointers never move, so the previous lookup stays valid and the
	// radix walk is skipped on a repeat.
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

	// Timing+state: L1D write in parallel with PB acceptance.
	e.hier.StoreTouch(uint64(block))

	// Crash boundary: the program view and L1 hold the store but it has
	// not reached the point of persistency yet.
	if e.sink != nil {
		e.sink.CrashPoint(crashpoint.StoreAccept, block)
	}

	if e.spb == nil {
		return e.doStoreSP(block, blk)
	}

	// Retire completed drains.
	e.reapDrains(e.now)

	accStart := max(e.now, e.pbPortFree)

	found, xored, maced := e.spb.CoalesceStore(block, off, int(size), data)
	if !found {
		return e.storeAlloc(block, off, size, data, blk, accStart)
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

// storeAlloc is the store path's full-accept case: the backflow test,
// the full accept (with cost accounting), and the complete early-work
// timing chain.
func (e *Engine) storeAlloc(block addr.Block, off int, size uint8, data uint64, blk *[addr.BlockBytes]byte, accStart uint64) error {
	// Backflow test: the Lookup only matters when occupancy is at the
	// limit, so check the cheap counter first.
	if e.virtualOcc >= e.kern.entries && e.spb.Lookup(block) == nil {
		// Backflow: the SecPB is full including in-flight drains; the
		// store waits for the oldest drain to complete (draining is
		// already in progress by watermark, but force one if not).
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
		// OBCM pays the SecPB access twice for new entries: once to
		// write the data block, once to check the counter valid bit.
		port += e.kern.allocPort
	}

	// Early-work timing follows Figure 4's dependency graph: the
	// counter gates everything; OTP → ciphertext → MAC form one chain;
	// the BMT walk branches off the counter in parallel. Distinct
	// hardware units pipeline across stores ("generation of several
	// MACs is overlapped with BMT updates", Sec VI.B), but stores
	// unblock the store buffer in order (persist order invariant).
	t0 := accStart + port
	tCtr := t0
	if cost.CounterStep {
		if cost.CtrCost.CtrFetchPM {
			tCtr += e.kern.pmRead
		} else {
			tCtr += e.kern.ctrHit
		}
	}
	// OTP → ciphertext → MAC chain.
	tChain := tCtr
	if cost.OTPGenerated {
		tChain += e.kern.aes
	}
	if cost.CipherXOR {
		// Regenerating Dc costs a single-cycle XOR plus a SecPB write
		// port access to update the entry's ciphertext field.
		tChain += 1 + e.kern.port
	}
	if cost.MACGenerated {
		tChain += e.kern.mac
	}
	// BMT branch (parallel with the MAC chain within this store: both
	// hang off the counter).
	tBMT := tCtr
	if cost.BMTLevels > 0 {
		tBMT += uint64(cost.BMTLevels)*e.kern.mac +
			uint64(cost.BMTNodeFetch)*e.kern.pmRead
	}
	// The unblocking signal: the SecPB accepts the next store only
	// after this store's early tuple elements are updated (for NoGap,
	// the complete tuple — the persist order invariant).
	unblock := max(tChain, tBMT)
	e.pbPortFree = unblock
	e.lastUnblock = unblock
	// The core proceeds unless the store buffer is full; then the
	// shared watermark-drain epilogue.
	e.now = e.sb.Push(e.now, unblock)
	return e.storeDrainTail()
}

// storeDrainTail is the watermark-drain epilogue every SecPB store runs:
// start draining above the high watermark, continue to the low one, and
// commit the burst's staged BMT walks in one coalesced sweep.
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

// replayBatch replays one validated batch. The loop is columnar: the
// block column is bulk-decomposed up front via internal/addr, ops are
// read straight out of the columns (no per-op trace.Op materialization
// and no per-op Validate), the CPI accumulation is inlined against a
// batch-local cpiTab reference with the instruction counter held in a
// register across the batch (the float trajectory performs the
// identical IEEE operations in identical order, so every derived cycle
// count is bit-identical to per-op Step), and L1-hit loads — the bulk of
// every workload — complete inside the loop with a single set probe.
func (e *Engine) replayBatch(b *trace.Batch) error {
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
			e.loadMiss(uint64(blocks[i]))
		case trace.Store:
			if err := e.store(blocks[i], addrs[i], sizes[i], datas[i]); err != nil {
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
