package recovery

import (
	"fmt"

	"secpb/internal/nvm"
	"secpb/internal/seal"
)

// SystemJournal seals the cross-core drain order for a whole-socket
// recovery. Its parts are the socket's battery-backed buffers, each
// with its own Journal and the restored controller it drains into: a
// 2-core system has four — the two private SecPBs (each draining into
// its own memory-channel shard), then the two shared-region SecPBs
// (both draining into the shared controller). The canonical order is
// the order of Add — ascending core id over the private SecPBs, then
// over the shared-region SecPBs, as engine.(*System).CrashDrainAll
// drains a live socket.
//
// It is a cursor over the parts' journals and holds no entries: its
// checksum folds each part's core id and its journal's capture digest,
// plus the cursor, so a replay in any other order, or with two parts'
// journals swapped, trips a typed *nvm.CorruptStateError before an
// entry drains out of turn. Each part's journal validates its own
// entries as the part drains. Reset readies a journal, new or used,
// for the Adds of a capture.
type SystemJournal struct {
	parts   []systemPart
	cursor  int    // next canonical position to drain
	partSum uint64 // digest of the parts as added (see Journal.entrySum)
	sum     uint64
}

// systemPart is one buffer of a SystemJournal.
type systemPart struct {
	core    int
	mc      *nvm.Controller
	journal *Journal
}

// Reset empties the journal and seals it with the cursor at zero,
// keeping its part storage.
func (j *SystemJournal) Reset() {
	j.parts = j.parts[:0]
	j.cursor = 0
	j.partSum = seal.Offset
	j.seal()
}

// Add appends the buffer core owned, captured into journal and
// draining into mc, as the next canonical part, and reseals.
func (j *SystemJournal) Add(core int, mc *nvm.Controller, journal *Journal) {
	j.parts = append(j.parts, systemPart{core: core, mc: mc, journal: journal})
	j.partSum = foldPart(j.partSum, core, journal)
	j.seal()
}

// foldPart extends a part digest over one part: its core id and its
// journal's capture digest.
func foldPart(h uint64, core int, journal *Journal) uint64 {
	h = seal.AddU64(h, uint64(core))
	return seal.AddU64(h, journal.entrySum)
}

// Drained returns how many parts have completed their drain.
func (j *SystemJournal) Drained() int { return j.cursor }

// seal re-signs the journal after a cursor advance, folding only the
// cursor into the capture-time part digest.
func (j *SystemJournal) seal() { j.sum = seal.AddU64(j.partSum, uint64(j.cursor)) }

// Validate recomputes the checksum from the parts and checks it against
// the seal.
func (j *SystemJournal) Validate() error {
	h := seal.Offset
	for i := range j.parts {
		h = foldPart(h, j.parts[i].core, j.parts[i].journal)
	}
	if got := seal.AddU64(h, uint64(j.cursor)); got != j.sum {
		return &nvm.CorruptStateError{
			Component: "cross-core drain journal",
			Detail: fmt.Sprintf("checksum %#x does not match stored %#x over %d parts (cursor %d)",
				got, j.sum, len(j.parts), j.cursor),
		}
	}
	return nil
}

// DrainPart drains the part at canonical index idx through its journal
// (DrainEntriesBudget on wall power). The system journal permits this
// only when idx is exactly the sealed cursor position: draining core 1
// before core 0, or a shared-region buffer before the private buffers,
// returns *nvm.CorruptStateError without touching PM.
func (j *SystemJournal) DrainPart(idx int) (nvm.Cost, error) {
	var zero nvm.Cost
	if err := j.Validate(); err != nil {
		return zero, err
	}
	if idx < 0 || idx >= len(j.parts) {
		return zero, fmt.Errorf("recovery: drain part %d of %d", idx, len(j.parts))
	}
	if idx != j.cursor {
		return zero, &nvm.CorruptStateError{
			Component: "cross-core drain journal",
			Detail: fmt.Sprintf("replay order violates sealed journal: part %d (core %d) offered at cursor %d (core %d)",
				idx, j.parts[idx].core, j.cursor, j.parts[j.cursor].core),
		}
	}
	p := &j.parts[idx]
	cost, err := DrainEntriesBudget(p.mc, p.journal, nil)
	if err != nil {
		return cost, fmt.Errorf("recovery: core %d drain: %w", p.core, err)
	}
	j.cursor++
	j.seal() // cursor advance is a durable journal update
	return cost, nil
}

// Drain replays the whole socket's late work. order selects the replay
// sequence by canonical part index, with nil meaning canonical. Any
// order other than the canonical one fails with *nvm.CorruptStateError
// on its first out-of-turn part — the negative control crashsim's
// multi-core matrix exercises.
func (j *SystemJournal) Drain(order []int) (nvm.Cost, error) {
	var total nvm.Cost
	if order != nil && len(order) != len(j.parts) {
		return total, fmt.Errorf("recovery: replay order lists %d of %d parts", len(order), len(j.parts))
	}
	for i := range j.parts {
		idx := i
		if order != nil {
			idx = order[i]
		}
		cost, err := j.DrainPart(idx)
		if err != nil {
			return total, err
		}
		total.Add(cost)
	}
	return total, nil
}
