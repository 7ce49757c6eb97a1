package recovery

import (
	"fmt"

	"secpb/internal/core"
	"secpb/internal/nvm"
	"secpb/internal/seal"
)

// CoreEntries is one battery-backed buffer's crash snapshot in a
// multi-core system: the core that owned it, the restored memory
// controller its entries drain into, and the entries themselves in FIFO
// order. A 2-core system typically contributes four parts — the two
// private SecPBs (each draining into its own memory-channel shard) and
// the two shared-region SecPBs (both draining into the shared
// controller).
type CoreEntries struct {
	Core    int
	MC      *nvm.Controller
	Entries []core.Entry
}

// SystemJournal seals the cross-core drain order for a whole-socket
// recovery. The canonical order is the order the parts are given in —
// ascending core id over the private SecPBs, then ascending core id
// over the shared-region SecPBs, matching engine.(*System).CrashDrainAll
// on a live socket. The journal's checksum covers that sequence (each
// part's core id and every entry's identity and payload) plus a durable
// cursor, so recovery code that replays parts in any other order trips
// a typed *nvm.CorruptStateError before it can drain a single entry out
// of turn: the replay discipline is data, not convention.
type SystemJournal struct {
	parts   []CoreEntries // entries copied; callers' slices not retained
	cursor  int           // next canonical position to drain
	partSum uint64        // digest of the parts as captured (see Journal.entrySum)
	sum     uint64
}

// NewSystemJournal captures the parts in canonical order and seals the
// checksum. Entry slices are copied.
func NewSystemJournal(parts []CoreEntries) *SystemJournal {
	j := &SystemJournal{parts: make([]CoreEntries, len(parts))}
	for i, p := range parts {
		j.parts[i] = CoreEntries{
			Core:    p.Core,
			MC:      p.MC,
			Entries: append([]core.Entry(nil), p.Entries...),
		}
	}
	j.partSum = hashParts(j.parts)
	j.seal()
	return j
}

// Parts returns the number of journaled parts.
func (j *SystemJournal) Parts() int { return len(j.parts) }

// Drained returns how many parts have completed their drain.
func (j *SystemJournal) Drained() int { return j.cursor }

// Complete reports whether every part drained.
func (j *SystemJournal) Complete() bool { return j.cursor == len(j.parts) }

// hashParts digests the canonical part sequence: each part's core id
// and entries. The per-entry fields reuse the single-core late-work
// journal's hashing so an entry swap between parts is as detectable as
// a part swap.
func hashParts(parts []CoreEntries) uint64 {
	h := seal.AddU64(seal.Offset, uint64(len(parts)))
	for i := range parts {
		h = seal.AddU64(h, uint64(parts[i].Core))
		h = hashEntries(h, parts[i].Entries)
	}
	return h
}

// seal re-signs the journal after a cursor advance, folding only the
// cursor into the capture-time part digest.
func (j *SystemJournal) seal() { j.sum = seal.AddU64(j.partSum, uint64(j.cursor)) }

// Validate recomputes the checksum from the parts and checks it against
// the seal.
func (j *SystemJournal) Validate() error {
	if got := seal.AddU64(hashParts(j.parts), uint64(j.cursor)); got != j.sum {
		return &nvm.CorruptStateError{
			Component: "cross-core drain journal",
			Detail: fmt.Sprintf("checksum %#x does not match stored %#x over %d parts (cursor %d)",
				got, j.sum, len(j.parts), j.cursor),
		}
	}
	return nil
}

// DrainPart drains the part at canonical index idx. The journal permits
// this only when idx is exactly the sealed cursor position: draining
// core 1 before core 0, or a shared-region buffer before the private
// buffers, returns *nvm.CorruptStateError without touching PM.
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
				idx, j.parts[idx].Core, j.cursor, j.parts[j.cursor].Core),
		}
	}
	p := &j.parts[idx]
	cost, err := DrainEntries(p.MC, p.Entries)
	if err != nil {
		return cost, fmt.Errorf("recovery: core %d drain: %w", p.Core, err)
	}
	j.cursor++
	j.seal() // cursor advance is a durable journal update
	return cost, nil
}

// DrainSystemEntries replays a whole-socket crash snapshot. parts must
// be in canonical order (ascending core id, private buffers before the
// shared-region buffers); order selects the replay sequence by index
// into parts, with nil meaning canonical. Any order other than the
// canonical one fails with *nvm.CorruptStateError on its first
// out-of-turn part — the negative control crashsim's multi-core matrix
// exercises.
func DrainSystemEntries(parts []CoreEntries, order []int) (nvm.Cost, error) {
	j := NewSystemJournal(parts)
	if order == nil {
		order = make([]int, len(parts))
		for i := range order {
			order[i] = i
		}
	}
	var total nvm.Cost
	if len(order) != len(parts) {
		return total, fmt.Errorf("recovery: replay order lists %d of %d parts", len(order), len(parts))
	}
	for _, idx := range order {
		cost, err := j.DrainPart(idx)
		if err != nil {
			return total, err
		}
		total.Add(cost)
	}
	return total, nil
}
