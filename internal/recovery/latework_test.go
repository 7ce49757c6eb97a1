package recovery

import (
	"errors"
	"testing"

	"secpb/internal/config"
	"secpb/internal/core"
	"secpb/internal/energy"
	"secpb/internal/engine"
	"secpb/internal/nvm"
	"secpb/internal/workload"
)

// pendingImage builds a run whose SecPB still holds undrained entries,
// then restores a fresh controller around the captured NV image — the
// state a recovery boot sees.
func pendingImage(t *testing.T, scheme config.Scheme) (*nvm.Controller, []core.Entry) {
	t.Helper()
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default().WithScheme(scheme)
	cfg.Seed = 0xBA77E
	key := []byte("latework-test-key")
	e, err := engine.New(cfg, prof, key)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, cfg.Seed, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunBatch(gen); err != nil {
		t.Fatal(err)
	}
	entries := e.SecPB().AppendEntries(nil)
	if len(entries) < 3 {
		t.Fatalf("run left only %d pending entries; budgeted-resume test needs several", len(entries))
	}
	mc := e.Controller()
	restored, err := nvm.Restore(cfg, key, mc.PM().Snapshot(), mc.Counters().Snapshot(),
		mc.MACs().Snapshot(), mc.Tree().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return restored, entries
}

// TestBudgetedDrainResumes kills the battery every ~2 entries and checks
// the journal cursor turns the nested crashes into forward progress:
// every boot drains what its budget covers, the final boot completes,
// and the recovered image is exactly as clean as an uninterrupted drain.
func TestBudgetedDrainResumes(t *testing.T) {
	mc, entries := pendingImage(t, config.SchemeCOBCM)
	cfg := mc.Config()
	perJ, err := energy.PerEntryDrainJ(cfg.Scheme, cfg.BMTLevels)
	if err != nil {
		t.Fatal(err)
	}

	j := NewJournal(entries)
	boots := 0
	for !j.Complete() {
		// 2.5 entries of reserve per boot: two full drains plus margin,
		// never a third.
		budget := energy.NewBudget(2.5 * perJ)
		_, derr := DrainEntriesBudget(mc, j, budget)
		if derr == nil {
			break
		}
		if !errors.Is(derr, ErrBatteryExhausted) {
			t.Fatal(derr)
		}
		boots++
		if boots > len(entries) {
			t.Fatalf("budgeted drain made no progress: %d boots for %d entries", boots, len(entries))
		}
	}
	if boots == 0 {
		t.Fatalf("budget of 2.5 entries never exhausted across %d entries", len(entries))
	}
	if !j.Complete() || j.Done() != len(entries) {
		t.Fatalf("journal not complete: done %d of %d", j.Done(), len(entries))
	}

	audit, err := AuditImage(mc)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Clean() {
		t.Fatalf("resumed drain left a dirty image: %s", audit)
	}
	for i := range entries {
		e := &entries[i]
		got, _, ferr := mc.FetchBlock(e.Block)
		if ferr != nil {
			t.Fatalf("block %#x after resumed drain: %v", e.Block.Addr(), ferr)
		}
		if got != e.Data {
			t.Fatalf("block %#x recovered wrong plaintext after resumed drain", e.Block.Addr())
		}
	}
}

// TestBudgetedDrainMatchesUnbudgeted checks the nested-crash path is
// cost-transparent: draining through N budgeted boots accumulates the
// same entry costs and yields the same image as one wall-powered drain.
func TestBudgetedDrainMatchesUnbudgeted(t *testing.T) {
	mcA, entries := pendingImage(t, config.SchemeOBCM)
	mcB, _ := pendingImage(t, config.SchemeOBCM)
	cfg := mcA.Config()
	perJ, err := energy.PerEntryDrainJ(cfg.Scheme, cfg.BMTLevels)
	if err != nil {
		t.Fatal(err)
	}

	costA, err := DrainEntriesBudget(mcA, NewJournal(entries), nil)
	if err != nil {
		t.Fatal(err)
	}

	var costB nvm.Cost
	j := NewJournal(entries)
	for !j.Complete() {
		budget := energy.NewBudget(1.5 * perJ) // one entry per boot
		c, derr := DrainEntriesBudget(mcB, j, budget)
		costB.Add(c)
		if derr != nil && !errors.Is(derr, ErrBatteryExhausted) {
			t.Fatal(derr)
		}
	}
	if costA != costB {
		t.Errorf("budgeted drain cost %+v != unbudgeted %+v", costB, costA)
	}
	if mcA.Tree().Root() != mcB.Tree().Root() {
		t.Error("budgeted and unbudgeted drains reached different BMT roots")
	}
}

// TestDrainRejectsTamperedJournal is the satellite bugfix's journal
// half: a journal whose contents no longer match its checksum must be
// refused with a typed error before anything is drained into PM.
func TestDrainRejectsTamperedJournal(t *testing.T) {
	mc, entries := pendingImage(t, config.SchemeCOBCM)
	j := NewJournal(entries)
	if err := j.Validate(); err != nil {
		t.Fatalf("fresh journal failed validation: %v", err)
	}
	if err := j.Tamper(); err != nil {
		t.Fatal(err)
	}
	_, writesBefore := mc.PM().Stats()
	_, err := DrainEntriesBudget(mc, j, nil)
	var corrupt *nvm.CorruptStateError
	if !errors.As(err, &corrupt) {
		t.Fatalf("tampered journal drained anyway: err=%v", err)
	}
	if corrupt.Component != "late-work journal" {
		t.Fatalf("wrong component: %q", corrupt.Component)
	}
	if _, writesAfter := mc.PM().Stats(); writesAfter != writesBefore {
		t.Error("corrupt journal still wrote to PM")
	}
}

// TestResumeRejectsJournalTamperedAfterNestedCrash damages the journal
// between a budgeted boot that died mid-drain and the boot that would
// resume it: the resume must be refused with a typed error before it
// writes anything to PM. A reseal after the damage (the cursor advance
// of a drain that was already running) must not re-sign it either.
func TestResumeRejectsJournalTamperedAfterNestedCrash(t *testing.T) {
	mc, entries := pendingImage(t, config.SchemeCOBCM)
	cfg := mc.Config()
	perJ, err := energy.PerEntryDrainJ(cfg.Scheme, cfg.BMTLevels)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(entries)
	_, derr := DrainEntriesBudget(mc, j, energy.NewBudget(1.5*perJ))
	if !errors.Is(derr, ErrBatteryExhausted) {
		t.Fatalf("one-entry budget did not exhaust: %v", derr)
	}
	if j.Done() == 0 || j.Complete() {
		t.Fatalf("nested crash left cursor %d of %d", j.Done(), j.Len())
	}
	if err := j.Tamper(); err != nil {
		t.Fatal(err)
	}
	j.seal()

	_, writesBefore := mc.PM().Stats()
	done := j.Done()
	_, err = DrainEntriesBudget(mc, j, nil)
	var corrupt *nvm.CorruptStateError
	if !errors.As(err, &corrupt) {
		t.Fatalf("resume drained a tampered journal: err=%v", err)
	}
	if _, writesAfter := mc.PM().Stats(); writesAfter != writesBefore {
		t.Error("resume of a corrupt journal wrote to PM")
	}
	if j.Done() != done {
		t.Errorf("refused resume moved the cursor %d -> %d", done, j.Done())
	}
}

// TestJournalValidateSkipsOnlyTheFreshDigest pins where Validate may
// fold the capture-time digest instead of rehashing the entries: only
// at the first validation after Reset. Entries damaged after that —
// here directly, as a nested crash's battery could, without Tamper —
// must fail every later validation, and so must entries damaged through
// Tamper before the first one.
func TestJournalValidateSkipsOnlyTheFreshDigest(t *testing.T) {
	_, entries := pendingImage(t, config.SchemeCOBCM)
	var j Journal
	j.Reset(entries)
	if err := j.Validate(); err != nil {
		t.Fatalf("fresh journal failed validation: %v", err)
	}
	j.entries[len(j.entries)-1].Data[0] ^= 1
	var corrupt *nvm.CorruptStateError
	if err := j.Validate(); !errors.As(err, &corrupt) {
		t.Fatalf("second validation missed damaged entries: %v", err)
	}

	j.Reset(entries)
	if err := j.Tamper(); err != nil {
		t.Fatal(err)
	}
	if err := j.Validate(); !errors.As(err, &corrupt) {
		t.Fatalf("first validation after Tamper missed the damage: %v", err)
	}
}
