package recovery

import (
	"errors"
	"fmt"

	"secpb/internal/core"
	"secpb/internal/energy"
	"secpb/internal/nvm"
	"secpb/internal/seal"
)

// ErrBatteryExhausted reports that the battery budget died before the
// late-work journal completed: a nested crash. The NV image is left
// self-consistent for the drained prefix (the staged BMT sweep is
// committed before the error returns), and the journal cursor records
// exactly where a second recovery must resume.
var ErrBatteryExhausted = errors.New("recovery: battery budget exhausted during late work")

// Journal is the persistent late-work journal: the battery-backed
// entries a crash left behind plus a durable cursor recording how many
// have completed their tuple. It survives a nested crash (the battery
// region that holds the SecPB entries holds it, by construction — it IS
// those entries plus one counter), so a second recovery boot resumes
// instead of restarting, and its checksum is validated before any entry
// is replayed so a corrupted journal surfaces as a typed error rather
// than draining garbage into PM.
type Journal struct {
	entries   []core.Entry
	done      int
	sweepDone bool
	// entrySum is the digest of the entries as captured. Entries never
	// change after capture, so it is computed once and every reseal
	// folds only the cursor and sweep flag into it.
	entrySum uint64
	sum      uint64
	// fresh reports that entrySum was just computed from the entries by
	// a capture (Reset or Capture) and nothing has validated, tampered
	// or resumed the journal since: the first Validate after a capture
	// may then fold entrySum instead of rehashing the same entries again.
	fresh bool
}

// NewJournal captures the entries (copied; the caller's slice is not
// retained) and seals the initial checksum.
func NewJournal(entries []core.Entry) *Journal {
	j := new(Journal)
	j.Reset(entries)
	return j
}

// Reset re-captures the journal over entries exactly as NewJournal
// does — copied, cursor at zero, freshly sealed — reusing the journal's
// entry storage, so a caller recovering crash point after crash point
// keeps one journal. entries may be a prefix of the journal's own
// Entries.
func (j *Journal) Reset(entries []core.Entry) {
	j.entries = append(j.entries[:0], entries...)
	j.captured()
}

// Capture is Reset over spb's battery-backed entries at this instant
// (core.SecPB.AppendEntries), copied straight into the journal's
// storage: what a power failure leaves the buffer's battery to drain.
func (j *Journal) Capture(spb *core.SecPB) {
	j.entries = spb.AppendEntries(j.entries[:0])
	j.captured()
}

// captured seals a new capture with the cursor at zero.
func (j *Journal) captured() {
	j.done = 0
	j.sweepDone = false
	j.entrySum = hashEntries(j.entries)
	j.fresh = true
	j.seal()
}

// Entries returns the journaled entries in drain order, valid until
// the next capture. Callers must not modify them.
func (j *Journal) Entries() []core.Entry { return j.entries }

// Len returns the total number of journaled entries.
func (j *Journal) Len() int { return len(j.entries) }

// Done returns how many entries have completed their tuple.
func (j *Journal) Done() int { return j.done }

// Complete reports whether every entry drained and the closing BMT
// sweep committed.
func (j *Journal) Complete() bool { return j.done == len(j.entries) && j.sweepDone }

// checksum folds the cursor and sweep flag into an entry digest.
func (j *Journal) checksum(entrySum uint64) uint64 {
	h := seal.AddU64(entrySum, uint64(j.done))
	return seal.AddU64(h, boolBits(j.sweepDone))
}

// hashEntries digests the entry count and every entry's identity and
// payload: block, data, coalescing metadata, and the prepared-tuple
// fields with their valid bits.
func hashEntries(entries []core.Entry) uint64 {
	h := seal.AddU64(seal.Offset, uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		h = seal.AddU64(h, e.Block.Addr())
		h = seal.Add(h, e.Data[:])
		h = seal.AddU64(h, uint64(e.ASID))
		h = seal.AddU64(h, uint64(e.Writes))
		h = seal.AddU64(h, e.Seq)
		m := &e.Ext
		h = seal.AddU64(h, boolBits(m.OTPValid)|boolBits(m.CipherValid)<<1|boolBits(m.CounterValid)<<2|
			boolBits(m.BMTDone)<<3|boolBits(m.MACValid)<<4)
		h = seal.Add(h, m.OTP[:])
		h = seal.Add(h, m.Cipher[:])
		h = seal.AddU64(h, m.Counter)
		h = seal.AddU64(h, uint64(m.CounterAdvance))
		h = seal.Add(h, m.MAC[:])
	}
	return h
}

func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// seal re-signs the journal after a durable update: an O(1) fold of the
// cursor into the capture-time entry digest. Entries damaged after
// capture are therefore never re-signed.
func (j *Journal) seal() { j.sum = j.checksum(j.entrySum) }

// Validate recomputes the checksum from the entries themselves and
// checks it against the seal, returning a typed *nvm.CorruptStateError
// on mismatch. The one exception is the first validation right after
// a capture (Reset or Capture): the capture-time digest was computed
// from these very entries moments earlier, within the same boot, so it
// is folded instead of rehashed. Every later validation — a resume
// after a nested crash, or any check after Tamper — rehashes every
// entry.
func (j *Journal) Validate() error {
	entrySum := j.entrySum
	if !j.fresh {
		entrySum = hashEntries(j.entries)
	}
	j.fresh = false
	if got := j.checksum(entrySum); got != j.sum {
		return &nvm.CorruptStateError{
			Component: "late-work journal",
			Detail: fmt.Sprintf("checksum %#x does not match stored %#x over %d entries (cursor %d)",
				got, j.sum, len(j.entries), j.done),
		}
	}
	return nil
}

// Tamper damages the journal without resealing it (test hook for the
// validation path).
func (j *Journal) Tamper() error {
	if len(j.entries) == 0 {
		return fmt.Errorf("recovery: empty journal cannot be tampered")
	}
	j.entries[0].Data[0] ^= 1
	j.fresh = false
	return nil
}

// DrainEntriesBudget performs the post-crash late work for the SecPB
// state the journal captured at a crash point: every entry's memory
// tuple is completed at the (restored) memory controller in allocation
// order, consuming whatever prepared metadata the scheme generated
// early, and the epoch ends with one coalesced BMT sweep — exactly what
// SecPB.CrashDrain runs on a live buffer. An entry whose first drain
// was interrupted mid-tuple is simply re-drained: PersistBlock's
// stale-prepared-metadata check regenerates any element built under a
// now-superseded counter.
//
// Each entry's drain first withdraws the scheme's worst-case per-entry
// energy (energy.PerEntryDrainJ, the Table V arithmetic the battery was
// sized with) from the budget; a nil budget is wall power. If the
// withdrawal fails the battery is dead: the staged BMT sweep is
// committed (the reserve that admitted the last entry covers its tree
// walk), the cursor is sealed, and ErrBatteryExhausted reports the
// nested crash. Re-invoking with the same journal — after the harness
// re-restores the NV image — resumes at the cursor. The journal is
// validated before any entry is replayed; a corrupted journal returns
// *nvm.CorruptStateError and touches nothing.
func DrainEntriesBudget(mc *nvm.Controller, j *Journal, budget *energy.Budget) (total nvm.Cost, err error) {
	if err := j.Validate(); err != nil {
		return total, err
	}
	var perEntryJ float64
	if budget != nil {
		cfg := mc.Config()
		perEntryJ, err = energy.PerEntryDrainJ(cfg.Scheme, cfg.BMTLevels)
		if err != nil {
			return total, err
		}
	}
	var prep nvm.PreparedMeta
	for j.done < len(j.entries) {
		if !budget.Consume(perEntryJ) {
			mc.CompleteSweep()
			j.seal()
			return total, ErrBatteryExhausted
		}
		e := &j.entries[j.done]
		e.Ext.PrepareInto(&prep)
		cost, perr := mc.PersistBlock(e.Block, &e.Data, &prep)
		if perr != nil {
			return total, fmt.Errorf("recovery: late work for block %#x: %w", e.Block.Addr(), perr)
		}
		total.Add(cost)
		j.done++
		j.seal() // the cursor advance is a durable journal update
	}
	mc.CompleteSweep()
	j.sweepDone = true
	j.seal()
	return total, nil
}
