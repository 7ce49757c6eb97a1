package recovery

import (
	"fmt"

	"secpb/internal/addr"
	"secpb/internal/nvm"
)

// BlockClass is a triage verdict for one persisted block. Where
// AuditImage is all-or-nothing — one bad bit and the whole image reports
// corrupt — Triage degrades block by block, Osiris-style.
type BlockClass uint8

const (
	// ClassClean blocks pass their MAC and their page's BMT path; they
	// are recovered byte-identically.
	ClassClean BlockClass = iota
	// ClassRecoverable blocks pass their MAC — the strongest per-block
	// evidence, keyed and counter-bound — but sit on a page whose
	// counter line fails its BMT path, so the tree cannot corroborate
	// them. Their plaintext is recovered, flagged for the operator.
	ClassRecoverable
	// ClassQuarantined blocks fail MAC verification: the ciphertext,
	// counter or stored tag is damaged, the plaintext is not
	// trustworthy, and the block is withheld from recovery.
	ClassQuarantined
)

// String returns the triage-class name.
func (c BlockClass) String() string {
	switch c {
	case ClassClean:
		return "clean"
	case ClassRecoverable:
		return "recoverable"
	case ClassQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// BlockVerdict is one block's triage outcome.
type BlockVerdict struct {
	Block  addr.Block
	Class  BlockClass
	Reason string // empty for clean blocks
}

// TriageReport is the structured damage report for one post-crash image.
type TriageReport struct {
	Blocks      int // persisted blocks triaged
	Clean       int
	Recoverable int
	Quarantined int

	Pages          int // counter pages checked against the BMT
	BadPages       int // pages whose counter line fails its path
	RootConsistent bool

	// Verdicts lists every block in address order.
	Verdicts []BlockVerdict

	index     map[addr.Block]int
	recovered map[addr.Block][addr.BlockBytes]byte
}

// Degraded reports whether anything short of a fully clean image was
// found.
func (r *TriageReport) Degraded() bool {
	return r.Quarantined > 0 || r.Recoverable > 0 || !r.RootConsistent
}

// Class returns the verdict for a block, if it was triaged.
func (r *TriageReport) Class(b addr.Block) (BlockClass, bool) {
	i, ok := r.index[b]
	if !ok {
		return 0, false
	}
	return r.Verdicts[i].Class, true
}

// Recovered returns the plaintext triage salvaged for a clean or
// recoverable block; quarantined (and unknown) blocks return false.
func (r *TriageReport) Recovered(b addr.Block) ([addr.BlockBytes]byte, bool) {
	p, ok := r.recovered[b]
	return p, ok
}

// String renders the damage summary.
func (r *TriageReport) String() string {
	status := "CLEAN"
	if r.Degraded() {
		status = "DEGRADED"
	}
	return fmt.Sprintf("triage: %d blocks (%d clean, %d recoverable, %d quarantined), %d/%d pages bad, root consistent=%v [%s]",
		r.Blocks, r.Clean, r.Recoverable, r.Quarantined, r.BadPages, r.Pages, r.RootConsistent, status)
}

// Triage classifies every persisted block of a post-crash image and
// salvages what it can. The state machine per block:
//
//	MAC(ciphertext, addr, counter) fails  -> quarantined
//	MAC ok, page's BMT path fails         -> recoverable (salvaged, flagged)
//	MAC ok, page's BMT path ok            -> clean (salvaged)
//
// plus one image-wide check: the BMT root register must be derivable by
// replaying all persisted counter lines (RootConsistent). Triage reads
// through Peek — a damaged image must not be further disturbed by the
// fault model — and never mutates the image. Run the scheme's late work
// (DrainEntriesBudget) first; triage judges the drained image. Like the
// audit it runs, it refuses an insecure controller.
func Triage(mc *nvm.Controller) (*TriageReport, error) {
	// The audit supplies the per-page BMT-path verdicts (shared by each
	// page's blocks) and the image-wide root replay; its MAC verdicts are
	// refined below into the three classes.
	var a Auditor
	if _, err := a.Audit(mc); err != nil {
		return nil, err
	}
	eng := mc.Engine()
	rep := &TriageReport{
		index:          make(map[addr.Block]int),
		recovered:      make(map[addr.Block][addr.BlockBytes]byte),
		Pages:          len(a.pages),
		RootConsistent: a.rootOK,
	}
	for _, ok := range a.pageOK {
		if !ok {
			rep.BadPages++
		}
	}

	// Blocks and pages both ascend, so page tracks each block's page.
	page := 0
	for _, b := range a.blocks {
		for a.pages[page] != b.CounterLine() {
			page++
		}
		rep.Blocks++
		ct, _ := mc.PM().Peek(b)
		ctr := mc.Counters().Value(b)
		verdict := BlockVerdict{Block: b}

		tag, haveTag := mc.MACs().Get(b)
		switch {
		case !haveTag:
			verdict.Class = ClassQuarantined
			verdict.Reason = "no stored MAC"
		case eng.MAC(&ct, b.Addr(), ctr) != tag:
			verdict.Class = ClassQuarantined
			verdict.Reason = "MAC mismatch (ciphertext, counter or tag damaged)"
		case !a.pageOK[page]:
			verdict.Class = ClassRecoverable
			verdict.Reason = fmt.Sprintf("BMT path for page %d fails; MAC vouches alone", b.CounterLine())
		default:
			verdict.Class = ClassClean
		}

		switch verdict.Class {
		case ClassClean:
			rep.Clean++
		case ClassRecoverable:
			rep.Recoverable++
		case ClassQuarantined:
			rep.Quarantined++
		}
		if verdict.Class != ClassQuarantined {
			rep.recovered[b] = eng.Decrypt(&ct, b.Addr(), ctr)
		}
		rep.index[b] = len(rep.Verdicts)
		rep.Verdicts = append(rep.Verdicts, verdict)
	}
	return rep, nil
}
