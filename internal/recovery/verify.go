package recovery

import (
	"fmt"
	"slices"

	"secpb/internal/addr"
	"secpb/internal/nvm"
)

// Report is the outcome of recovering one crashed image and checking it
// against the golden plaintext image (Verifier.Verify).
type Report struct {
	EntriesDrained int      // battery-backed entries drained
	DrainCost      nvm.Cost // work the battery paid for, on a live crash drain
	BlocksChecked  int      // golden blocks recovered and compared
	Failures       int      // findings of every check
	FirstBad       string   // description of the first finding, if any

	// Exhausted reports that the first recovery boot's battery died
	// mid-drain (a nested crash); Resumed that a second boot replayed
	// the late-work journal to completion.
	Exhausted bool
	Resumed   bool
}

// Clean reports whether recovery was fully successful.
func (r Report) Clean() bool { return r.Failures == 0 }

// String renders a summary.
func (r Report) String() string {
	status := "CLEAN"
	if !r.Clean() {
		status = "CORRUPT: " + r.FirstBad
	}
	return fmt.Sprintf("recovery: drained %d entries, checked %d blocks, %d failures [%s]",
		r.EntriesDrained, r.BlocksChecked, r.Failures, status)
}

// Fail records one finding; the first one becomes FirstBad.
func (r *Report) Fail(msg string) {
	r.Failures++
	if r.FirstBad == "" {
		r.FirstBad = msg
	}
}

// Verifier is the recovered-image check, with scratch that survives
// from one image to the next: the audit's lists and replay tree, and the
// persisted, golden and lost block lists. A caller checking image after
// image (the crash matrix checks one per crash point) keeps one
// Verifier. The zero value is ready; a Verifier is not safe for
// concurrent use.
type Verifier struct {
	audit     Auditor
	persisted []addr.Block
	committed []addr.Block
	lost      []addr.Block
}

// Verify checks a recovered controller against the golden plaintext
// image — the program's view of every committed store — and adds the
// findings to rep:
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
// An insecure controller (the BBB baseline) stores no tuple, so it gets
// checks 2 and 3 only. Tuple elements are checked for consistency rather
// than for equality with the pre-crash run: a drain interrupted after
// its counter persist legally re-increments on re-drain, yielding a
// different-but-valid tuple for the same plaintext. The controller must
// be settled (battery-backed entries drained); the returned error is a
// harness failure, never a finding.
func (v *Verifier) Verify(mc *nvm.Controller, golden map[addr.Block][addr.BlockBytes]byte, rep *Report) error {
	secure := mc.Secure()
	if secure {
		audit, err := v.audit.Audit(mc)
		if err != nil {
			return fmt.Errorf("recovery: audit: %w", err)
		}
		if !audit.Clean() {
			rep.Fail("audit: " + audit.FirstBad)
		}
	}

	// Check 2 walks the persisted and golden block lists together, both
	// in ascending address order: a block on the persisted side only is
	// a phantom, one on the golden side only was lost. Phantoms are
	// reported first and lost blocks after them, each in ascending order,
	// so the first reported failure is deterministic.
	persisted := mc.PM().AppendBlocks(v.persisted[:0])
	committed := v.committed[:0]
	for b := range golden {
		committed = append(committed, b)
	}
	slices.Sort(committed)
	lost := v.lost[:0]
	for i, k := 0, 0; i < len(persisted) || k < len(committed); {
		switch {
		case k == len(committed) || i < len(persisted) && persisted[i] < committed[k]:
			rep.Fail(fmt.Sprintf("phantom block %#x persisted but never committed", persisted[i].Addr()))
			i++
		case i == len(persisted) || committed[k] < persisted[i]:
			lost = append(lost, committed[k])
			k++
		default:
			i++
			k++
		}
	}
	for _, b := range lost {
		rep.Fail(fmt.Sprintf("committed block %#x lost after recovery", b.Addr()))
	}
	v.persisted, v.committed, v.lost = persisted, committed, lost

	eng := mc.Engine()
	for _, b := range committed {
		want := golden[b]
		rep.BlocksChecked++
		got, _, err := mc.FetchBlock(b)
		if err != nil {
			rep.Fail(fmt.Sprintf("block %#x: fetch: %v", b.Addr(), err))
			continue
		}
		if got != want {
			rep.Fail(fmt.Sprintf("block %#x: recovered plaintext differs from golden model", b.Addr()))
			continue
		}
		if !secure {
			continue
		}
		ct, ok := mc.PM().Peek(b)
		if !ok {
			continue // already reported as lost
		}
		ctr := mc.Counters().Value(b)
		if eng.Encrypt(&want, b.Addr(), ctr) != ct {
			rep.Fail(fmt.Sprintf("block %#x: ciphertext not derivable from plaintext under image counter %d", b.Addr(), ctr))
		}
		tag, ok := mc.MACs().Get(b)
		if !ok {
			rep.Fail(fmt.Sprintf("block %#x: MAC missing after recovery", b.Addr()))
		} else if eng.MAC(&ct, b.Addr(), ctr) != tag {
			rep.Fail(fmt.Sprintf("block %#x: stored MAC inconsistent with ciphertext/counter", b.Addr()))
		}
	}
	return nil
}
