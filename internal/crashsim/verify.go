package crashsim

import (
	"errors"
	"fmt"

	"secpb/internal/addr"
	"secpb/internal/energy"
	"secpb/internal/nvm"
	"secpb/internal/recovery"
)

// VerifyResult accumulates the outcome of recovering one snapshot and
// differentially checking it against the golden model.
type VerifyResult struct {
	EntriesDrained int
	BlocksChecked  int
	Failures       int
	FirstBad       string

	// Exhausted reports that the first recovery boot's battery died
	// mid-drain (a nested crash); Resumed that a second boot replayed
	// the late-work journal to completion.
	Exhausted bool
	Resumed   bool
}

func (v *VerifyResult) fail(msg string) {
	v.Failures++
	if v.FirstBad == "" {
		v.FirstBad = msg
	}
}

// RecoverVerify restores a memory controller from the snapshot's NV
// image, runs the scheme's post-crash late work over the battery-backed
// entries, and then checks the recovered state four ways:
//
//  1. the whole-image audit (per-block MAC, per-page BMT path, root
//     reconstruction by replay) must come back clean;
//  2. the persisted block set must equal the golden model's exactly —
//     no lost stores, no phantom blocks;
//  3. every block must decrypt to the golden plaintext; and
//  4. the stored tuple must be internally derivable byte for byte:
//     ciphertext == Enc(plaintext, counter) and MAC == MAC(ciphertext,
//     addr, counter) under the image's own counters.
//
// Tuple elements are checked for consistency rather than for equality
// with the pre-crash run: a drain interrupted after its counter persist
// legally re-increments on re-drain, yielding a different-but-valid
// tuple for the same plaintext. The returned error is a harness
// failure; verification findings land in the result.
func (s *Snapshot) RecoverVerify(golden map[addr.Block][addr.BlockBytes]byte) (VerifyResult, error) {
	var res VerifyResult
	mc, err := nvm.Restore(s.cfg, s.key, s.pm, s.ctrs, s.macs, s.tree)
	if err != nil {
		return res, fmt.Errorf("crashsim: restore controller: %w", err)
	}
	res.EntriesDrained = len(s.entries)
	if _, err := recovery.DrainEntries(mc, s.entries); err != nil {
		// A late drain that cannot complete is a correctness finding —
		// the battery-backed state was insufficient — not a harness bug.
		res.fail(fmt.Sprintf("late work failed: %v", err))
		return res, nil
	}
	return res, verifyImage(mc, golden, &res)
}

// RecoverVerifyResumable is RecoverVerify under a degraded battery: the
// first recovery boot funds only budgetEntries entries of late work, so
// a snapshot holding more suffers a nested crash mid-drain. A second
// boot then restores the partially-drained NV image (volatile state
// cold, exactly as after any power loss) and resumes from the persistent
// late-work journal where the first boot's cursor stopped. With
// dropJournal the journal is lost in the nested crash — the negative
// control: the second boot can only audit what already drained, and
// verification must find the undrained entries missing.
func (s *Snapshot) RecoverVerifyResumable(golden map[addr.Block][addr.BlockBytes]byte, budgetEntries int, dropJournal bool) (VerifyResult, error) {
	var res VerifyResult
	mc, err := nvm.Restore(s.cfg, s.key, s.pm, s.ctrs, s.macs, s.tree)
	if err != nil {
		return res, fmt.Errorf("crashsim: restore controller: %w", err)
	}
	perJ, err := energy.PerEntryDrainJ(s.cfg.Scheme, s.cfg.BMTLevels)
	if err != nil {
		return res, fmt.Errorf("crashsim: per-entry drain energy: %w", err)
	}
	// Half an entry of margin past the funded count: the battery browns
	// out at entry boundaries, never mid-tuple.
	budget := energy.NewBudget((float64(budgetEntries) + 0.5) * perJ)

	j := recovery.NewJournal(s.entries)
	_, derr := recovery.DrainEntriesBudget(mc, j, budget)
	switch {
	case derr == nil:
		// The budget covered everything; no nested crash occurred.
	case errors.Is(derr, recovery.ErrBatteryExhausted):
		res.Exhausted = true
		// Second boot: the nested crash preserved the partially-drained
		// NV image (DrainEntriesBudget committed the staged sweep before
		// dying); re-restore it so volatile state comes up cold.
		mc2, rerr := nvm.Restore(s.cfg, s.key, mc.PM(), mc.Counters(), mc.MACs(), mc.Tree())
		if rerr != nil {
			return res, fmt.Errorf("crashsim: restore after nested crash: %w", rerr)
		}
		mc = mc2
		if !dropJournal {
			if _, rerr := recovery.DrainEntriesBudget(mc, j, nil); rerr != nil {
				res.fail(fmt.Sprintf("journal resume failed: %v", rerr))
				return res, nil
			}
			res.Resumed = true
		}
	default:
		res.fail(fmt.Sprintf("late work failed: %v", derr))
		return res, nil
	}
	res.EntriesDrained = j.Done()
	return res, verifyImage(mc, golden, &res)
}

// verifyImage runs checks 1-4 (see RecoverVerify) over a recovered
// controller against the golden plaintext image. It is shard-agnostic:
// the multi-core matrix applies it to each private memory-channel shard
// and to the shared coherent region independently.
func verifyImage(mc *nvm.Controller, golden map[addr.Block][addr.BlockBytes]byte, res *VerifyResult) error {
	audit, err := recovery.AuditImage(mc)
	if err != nil {
		return fmt.Errorf("crashsim: audit: %w", err)
	}
	if !audit.Clean() {
		res.fail("audit: " + audit.FirstBad)
	}

	persisted := mc.PM().Blocks()
	have := make(map[addr.Block]struct{}, len(persisted))
	for _, b := range persisted {
		have[b] = struct{}{}
		if _, ok := golden[b]; !ok {
			res.fail(fmt.Sprintf("phantom block %#x persisted but never committed", b.Addr()))
		}
	}
	committed := sortedBlocks(golden)
	for _, b := range committed {
		if _, ok := have[b]; !ok {
			res.fail(fmt.Sprintf("committed block %#x lost after recovery", b.Addr()))
		}
	}

	eng := mc.Engine()
	for _, b := range committed {
		want := golden[b]
		res.BlocksChecked++
		got, _, err := mc.FetchBlock(b)
		if err != nil {
			res.fail(fmt.Sprintf("block %#x: fetch: %v", b.Addr(), err))
			continue
		}
		if got != want {
			res.fail(fmt.Sprintf("block %#x: recovered plaintext differs from golden model", b.Addr()))
			continue
		}
		ct, ok := mc.PM().Peek(b)
		if !ok {
			continue // already reported as lost
		}
		ctr := mc.Counters().Value(b)
		if eng.Encrypt(&want, b.Addr(), ctr) != ct {
			res.fail(fmt.Sprintf("block %#x: ciphertext not derivable from plaintext under image counter %d", b.Addr(), ctr))
		}
		tag, ok := mc.MACs().Get(b)
		if !ok {
			res.fail(fmt.Sprintf("block %#x: MAC missing after recovery", b.Addr()))
		} else if eng.MAC(&ct, b.Addr(), ctr) != tag {
			res.fail(fmt.Sprintf("block %#x: stored MAC inconsistent with ciphertext/counter", b.Addr()))
		}
	}
	return nil
}
