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

// This file is the differential oracle for the engine's step path
// (kernel.go): the generic per-op interpreter that path was specialized
// from. It re-reads every latency from config.Config on every op, keeps
// the scheme test for the SP baseline, and walks the whole hierarchy on
// an L1 miss, so a slip in the step path's preresolved constants, its
// SP or coalescing branches or its crash-point placement shows up as a
// divergence. It shares the engine's state and its lower-level helpers
// (doStoreSP, scheduleDrain, reapDrains, storeDrainTail, stall): those
// are the model, not the dispatch under test.

// oracleStep is Step on the generic interpreter.
func (e *Engine) oracleStep(op trace.Op) error {
	if err := op.Validate(); err != nil {
		return err
	}
	e.advance(op.Gap)
	switch op.Kind {
	case trace.Load:
		e.doLoad(op)
	case trace.Store:
		return e.doStore(op)
	case trace.Fence:
		if d := e.sb.DrainedBy(); d > e.now {
			e.now = d
		}
	}
	return nil
}

// oracleRun is Run over an op slice on the generic interpreter.
func (e *Engine) oracleRun(ops []trace.Op) error {
	for _, op := range ops {
		if err := e.oracleStep(op); err != nil {
			return err
		}
	}
	return e.finishRun()
}

// doLoad models a data read.
func (e *Engine) doLoad(op trace.Op) {
	e.loads++
	block := addr.BlockOf(op.Addr)

	// L1 hit: fully pipelined, no retirement stall.
	if e.hier.L1().Access(block.Addr(), false, false) {
		return
	}
	// The persist buffer is at the L1 level and holds the freshest
	// data: an L1 miss that hits the SecPB is served from it.
	if e.spb != nil && e.spb.Lookup(block) != nil {
		e.pbServedLoads++
		e.hier.L1().Fill(block.Addr(), true, true)
		e.stall(e.cfg.SecPBAccessCyc)
		return
	}
	res := e.hier.Load(block.Addr())
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
		if e.mc.Secure() && !e.cfg.Speculative {
			extra = e.cfg.MACLatency + uint64(cost.BMTLevels)*e.cfg.MACLatency
		}
	}
	e.stall(res.Cycles - e.hier.L1().Latency() + extra)
}

// doStore models a persist: the store enters L1D and the SecPB in
// parallel; acceptance latency depends on the scheme's early work.
func (e *Engine) doStore(op trace.Op) error {
	e.stores++
	block := addr.BlockOf(op.Addr)
	off := int(op.Addr - block.Addr())

	// Functional: update the program view in place (whole-word stores,
	// the common case, skip the byte loop).
	blk, _ := e.memory.GetOrCreate(block.Index())
	if op.Size == 8 {
		binary.LittleEndian.PutUint64(blk[off:off+8], op.Data)
	} else {
		for i := 0; i < int(op.Size); i++ {
			blk[off+i] = byte(op.Data >> (8 * i))
		}
	}

	// Timing+state: L1D write in parallel with PB acceptance.
	e.hier.StoreTouch(block.Addr())

	// Crash boundary: the program view and L1 hold the store but it has
	// not reached the point of persistency yet.
	if e.sink != nil {
		e.sink.CrashPoint(crashpoint.StoreAccept, block)
	}

	if e.cfg.Scheme == config.SchemeSP {
		return e.doStoreSP(block, blk)
	}

	// Retire completed drains.
	e.reapDrains(e.now)

	accStart := max(e.now, e.pbPortFree)

	// Backflow test: the Lookup only matters when occupancy is at the
	// limit, so check the cheap counter first.
	if e.virtualOcc >= e.cfg.SecPBEntries && e.spb.Lookup(block) == nil {
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
	if err := e.spb.AcceptStoreInit(0, block, off, int(op.Size), op.Data, blk, accStart, &cost); err != nil {
		return fmt.Errorf("engine: accept store: %w", err)
	}
	if cost.Allocated {
		e.virtualOcc++
		if e.virtualOcc > e.peakOcc {
			e.peakOcc = e.virtualOcc
		}
	}

	// Early-work timing follows Figure 4's dependency graph: the
	// counter gates everything; OTP → ciphertext → MAC form one chain;
	// the BMT walk branches off the counter in parallel. Distinct
	// hardware units pipeline across stores ("generation of several
	// MACs is overlapped with BMT updates", Sec VI.B), but stores
	// unblock the store buffer in order (persist order invariant).
	port := e.cfg.SecPBAccessCyc
	if cost.Allocated && e.cfg.Scheme == config.SchemeOBCM {
		// OBCM pays the SecPB access twice for new entries: once to
		// write the data block, once to check the counter valid bit.
		port += e.cfg.SecPBAccessCyc
	}
	t0 := accStart + port
	e.pbPortFree = t0

	tCtr := t0
	if cost.CounterStep {
		if cost.CtrCost.CtrFetchPM {
			tCtr += e.cfg.PMReadCycles()
		} else {
			tCtr += e.cfg.CtrCache.AccessCycles
		}
	}
	// OTP → ciphertext → MAC chain.
	tChain := tCtr
	if cost.OTPGenerated {
		tChain += e.cfg.AESLatency
	}
	if cost.CipherXOR {
		// Regenerating Dc costs a single-cycle XOR plus a SecPB write
		// port access to update the entry's ciphertext field.
		tChain += 1 + e.cfg.SecPBAccessCyc
	}
	if cost.MACGenerated {
		tChain += e.cfg.MACLatency
	}
	// BMT branch (parallel with the MAC chain within this store: both
	// hang off the counter, and "the generation of several MACs is
	// overlapped with BMT updates", Sec VI.B).
	tBMT := tCtr
	if cost.BMTLevels > 0 {
		tBMT += uint64(cost.BMTLevels)*e.cfg.MACLatency +
			uint64(cost.BMTNodeFetch)*e.cfg.PMReadCycles()
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
