package crashsim

import (
	"errors"
	"fmt"

	"secpb/internal/addr"
	"secpb/internal/bmt"
	"secpb/internal/config"
	"secpb/internal/crypto"
	"secpb/internal/energy"
	"secpb/internal/meta"
	"secpb/internal/nvm"
	"secpb/internal/recovery"
)

// recoverer is the recovery state a Snapshot keeps from one crash point
// to the next, beside its recycled stores and journal: the controller
// every recovery reboots onto the captured image, the verification
// scratch, and the memo on the controller's engine. Each recovery
// overwrites all but the memo before reading it — Reboot brings the
// controller up cold — and a memo hit is the hash a fresh computation
// returns, so recycling any of it changes no finding. The snapshot's
// rig keeps it from one cell to the next as well; reset readies it for
// a new cell.
type recoverer struct {
	mc *nvm.Controller
	recovery.Verifier
	// memo serves the recovery engine's MACs, node hashes and pads for
	// the whole cell: consecutive crash images share almost every block,
	// counter line and tree node, so the checker re-authenticates each
	// distinct input with one SHA-512 compression per cell instead of
	// one per point, and derives each (address, counter) pad — which
	// FetchBlock's decrypt and check 4's re-encrypt both need — with one
	// AES pass per cell instead of two per point.
	memo *crypto.HashMemo
	// noMemo boots the controller without a memo; tests set it to
	// compare findings with and without one.
	noMemo bool
}

// reset readies the recovery state for a cell under cfg and key, so
// that the cell's findings and memo counts are those of a new
// recoverer: the memo is emptied, noMemo is cleared, and the
// controller is reset (nvm.Controller.Reset), which keeps it — crypto
// engine included — when only the scheme and seed change under the
// same key and rebuilds it otherwise.
func (r *recoverer) reset(cfg config.Config, key []byte) error {
	r.noMemo = false
	if r.memo != nil {
		r.memo.Reset()
	}
	if r.mc == nil {
		return nil
	}
	return r.mc.Reset(cfg, key)
}

// memoSlots sizes each of the recovery memo's three tables (MAC, node
// hash and pad). A 2,000-op, 120-point kvstore cell hashes about 230
// distinct MAC inputs and 940 distinct node inputs; at 1024 slots,
// collisions cost it about five points of hit rate, and twice the slots
// bought no measurable crash-matrix speed for the extra memory. The
// pad table serves about 96% of that cell's pads at this size.
const memoSlots = 1024

// boot power-cycles the snapshot's recovery controller onto an NV
// image, building the controller on the rig's first recovery, and
// attaches the memo to its engine — or, with noMemo, detaches it.
func (s *Snapshot) boot(pm *nvm.PM, ctrs *meta.CounterStore, macs *meta.MACStore, tree *bmt.Tree) (*nvm.Controller, error) {
	r := s.rec
	if r.mc == nil {
		mc, err := nvm.Restore(s.cfg, s.key, pm, ctrs, macs, tree)
		if err != nil {
			return nil, err
		}
		r.mc = mc
	} else if err := r.mc.Reboot(pm, ctrs, macs, tree); err != nil {
		return nil, err
	}
	if r.noMemo {
		r.memo = nil
	} else if r.memo == nil {
		r.memo = crypto.NewHashMemo(memoSlots)
	}
	r.mc.Engine().SetMemo(r.memo)
	return r.mc, nil
}

// RecoverVerify boots a memory controller on the snapshot's NV image,
// runs the scheme's post-crash late work over the journal's
// battery-backed entries, and then checks the recovered state against
// the golden image four ways (recovery.Verifier.Verify: audit, block-set
// equality, plaintext, tuple derivability). The returned error is a
// harness failure; verification findings land in the report.
//
// The controller is the snapshot's own, rebooted in place (Reboot) at
// every crash point after the first, and the verification scratch is
// recycled with it; like the stores, both are valid only inside the
// handler call.
func (s *Snapshot) RecoverVerify(golden map[addr.Block][addr.BlockBytes]byte) (recovery.Report, error) {
	var res recovery.Report
	mc, err := s.boot(s.pm, s.ctrs, s.macs, s.tree)
	if err != nil {
		return res, fmt.Errorf("crashsim: restore controller: %w", err)
	}
	res.EntriesDrained = s.journal.Len()
	if _, err := recovery.DrainEntriesBudget(mc, &s.journal, nil); err != nil {
		// A late drain that cannot complete is a correctness finding —
		// the battery-backed state was insufficient — not a harness bug.
		res.Fail(fmt.Sprintf("late work failed: %v", err))
		return res, nil
	}
	return res, s.rec.Verify(mc, golden, &res)
}

// RecoverVerifyResumable is RecoverVerify under a degraded battery: the
// first recovery boot funds only budgetEntries entries of late work, so
// a snapshot holding more suffers a nested crash mid-drain. A second
// boot then reboots the controller onto the partially-drained NV image
// (volatile state cold, exactly as after any power loss) and resumes
// from the persistent late-work journal where the first boot's cursor
// stopped. With dropJournal the journal is lost in the nested crash —
// the negative control: the second boot can only audit what already
// drained, and verification must find the undrained entries missing.
func (s *Snapshot) RecoverVerifyResumable(golden map[addr.Block][addr.BlockBytes]byte, budgetEntries int, dropJournal bool) (recovery.Report, error) {
	var res recovery.Report
	mc, err := s.boot(s.pm, s.ctrs, s.macs, s.tree)
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

	j := &s.journal
	_, derr := recovery.DrainEntriesBudget(mc, j, budget)
	switch {
	case derr == nil:
		// The budget covered everything; no nested crash occurred.
	case errors.Is(derr, recovery.ErrBatteryExhausted):
		res.Exhausted = true
		// Second boot: the nested crash preserved the partially-drained
		// NV image (DrainEntriesBudget committed the staged sweep before
		// dying); reboot onto it so volatile state comes up cold. PM and
		// MACs materialize any staged drain tuple before the reboot.
		if mc, err = s.boot(mc.PM(), mc.Counters(), mc.MACs(), mc.Tree()); err != nil {
			return res, fmt.Errorf("crashsim: restore after nested crash: %w", err)
		}
		if !dropJournal {
			if _, rerr := recovery.DrainEntriesBudget(mc, j, nil); rerr != nil {
				res.Fail(fmt.Sprintf("journal resume failed: %v", rerr))
				return res, nil
			}
			res.Resumed = true
		}
	default:
		res.Fail(fmt.Sprintf("late work failed: %v", derr))
		return res, nil
	}
	res.EntriesDrained = j.Done()
	return res, s.rec.Verify(mc, golden, &res)
}
