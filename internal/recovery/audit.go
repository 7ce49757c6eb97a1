package recovery

import (
	"fmt"

	"secpb/internal/addr"
	"secpb/internal/bmt"
	"secpb/internal/nvm"
)

// AuditReport summarizes a full-image integrity audit.
type AuditReport struct {
	Blocks       int // data blocks audited
	CounterLines int // counter lines verified against the BMT
	MACFailures  int
	TreeFailures int
	FirstBad     string
}

// Clean reports whether the image audited clean.
func (a AuditReport) Clean() bool { return a.MACFailures == 0 && a.TreeFailures == 0 }

// String renders a summary.
func (a AuditReport) String() string {
	status := "CLEAN"
	if !a.Clean() {
		status = "CORRUPT: " + a.FirstBad
	}
	return fmt.Sprintf("audit: %d blocks, %d counter lines, %d MAC failures, %d tree failures [%s]",
		a.Blocks, a.CounterLines, a.MACFailures, a.TreeFailures, status)
}

// AuditImage exhaustively verifies a post-crash PM image: every
// persisted data block's MAC under its storage counter, and every
// touched counter line's path to the on-chip BMT root. This is the
// recovery-time integrity pass at full scope — a per-block FetchBlock
// only checks one path; the audit proves the whole image is mutually
// consistent before the system exposes it to the crash observer. It is
// a one-shot Auditor's Audit.
func AuditImage(mc *nvm.Controller) (AuditReport, error) {
	var a Auditor
	return a.Audit(mc)
}

// Auditor runs AuditImage's audit with scratch that survives from one
// audit to the next: the block and page lists and the tree the root
// reconstruction replays into. A caller auditing image after image (the
// crash matrix audits one per crash point) keeps one Auditor, and every
// audit after the first resets the replay tree in place instead of
// building a new one. After an audit it also holds the verdicts Triage
// grades blocks by: each page's BMT path and the root replay. The zero
// value is ready; an Auditor is not safe for concurrent use.
type Auditor struct {
	blocks  []addr.Block
	pages   []uint64 // counter lines with data, ascending
	pageOK  []bool   // per page: counters present and BMT path verified
	rootOK  bool     // the replayed counter lines reproduce the root register
	replay  []uint64 // the subset of pages holding counters
	lineBuf []byte
	tree    *bmt.Tree
}

// Audit runs the full-image audit over mc (see AuditImage).
func (a *Auditor) Audit(mc *nvm.Controller) (AuditReport, error) {
	var rep AuditReport
	if !mc.Secure() {
		return rep, fmt.Errorf("recovery: audit requires a secure controller")
	}
	eng := mc.Engine()
	pm, ctrs, macs := mc.PM(), mc.Counters(), mc.MACs()
	a.blocks = pm.AppendBlocks(a.blocks[:0])
	a.pages = a.pages[:0]
	for _, b := range a.blocks {
		rep.Blocks++
		ct, _ := pm.Peek(b)
		ctr := ctrs.Value(b)
		want := eng.MAC(&ct, b.Addr(), ctr)
		if err := macs.Verify(b, want); err != nil {
			rep.MACFailures++
			if rep.FirstBad == "" {
				rep.FirstBad = err.Error()
			}
		}
		// Blocks ascend, so their counter lines do too: the page list
		// comes out sorted and deduplicated, which fixes the audit
		// order (and FirstBad).
		if page := b.CounterLine(); len(a.pages) == 0 || a.pages[len(a.pages)-1] != page {
			a.pages = append(a.pages, page)
		}
	}
	a.replay = a.replay[:0]
	a.pageOK = a.pageOK[:0]
	for _, page := range a.pages {
		rep.CounterLines++
		line, ok := ctrs.Peek(page)
		if !ok {
			a.pageOK = append(a.pageOK, false)
			rep.TreeFailures++
			if rep.FirstBad == "" {
				rep.FirstBad = fmt.Sprintf("page %d has data but no counters", page)
			}
			continue
		}
		a.replay = append(a.replay, page)
		a.lineBuf = line.AppendBytes(a.lineBuf[:0])
		err := mc.Tree().Verify(page, a.lineBuf)
		a.pageOK = append(a.pageOK, err == nil)
		if err != nil {
			rep.TreeFailures++
			if rep.FirstBad == "" {
				rep.FirstBad = err.Error()
			}
		}
	}

	// Root reconstruction: the recovery-time replay. Every persisted
	// counter line is replayed into an empty tree through one coalesced
	// UpdateBatch sweep, and the rebuilt root must equal the NV root
	// register. The per-path checks above trust the stored interior
	// nodes they traverse; the replay proves the register is derivable
	// from the persisted counters alone, so a crash path that persisted
	// data without completing its tree updates (the recoverability gap)
	// cannot audit clean. The replay tree is the previous audit's,
	// emptied onto the audited tree's hasher, height and default-hash
	// chain (EmptyInto), so building it hashes nothing.
	a.tree = mc.Tree().EmptyInto(a.tree)
	a.tree.UpdateBatch(a.replay, func(page uint64) []byte {
		line, _ := ctrs.Peek(page)
		a.lineBuf = line.AppendBytes(a.lineBuf[:0])
		return a.lineBuf
	})
	if a.rootOK = a.tree.Root() == mc.Tree().Root(); !a.rootOK {
		rep.TreeFailures++
		if rep.FirstBad == "" {
			rep.FirstBad = "replayed counter lines do not reproduce the root register"
		}
	}
	return rep, nil
}

// AuditError is a full-image audit that found inconsistencies: the
// settled PM image does not mutually verify (MAC or BMT failures). It
// is typed so callers that gate on a clean image — the streaming
// service refuses to serve a session result off an image that does not
// audit clean — can distinguish an integrity finding from harness
// failures.
type AuditError struct {
	Report AuditReport
}

func (e *AuditError) Error() string {
	return "recovery: " + e.Report.String()
}

// AuditClean runs the full-image audit on a settled controller and
// converts an unclean report into a typed *AuditError. Insecure
// controllers (the BBB baseline) have nothing to audit and pass
// trivially. The controller must be settled first — battery-backed
// buffers drained, staged walks committed — since a mid-stream image
// legitimately lacks the tuples still held in the SecPB.
func AuditClean(mc *nvm.Controller) error {
	if !mc.Secure() {
		return nil
	}
	rep, err := AuditImage(mc)
	if err != nil {
		return err
	}
	if !rep.Clean() {
		return &AuditError{Report: rep}
	}
	return nil
}
