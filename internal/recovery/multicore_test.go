package recovery

import (
	"errors"
	"reflect"
	"testing"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/nvm"
	"secpb/internal/workload"
)

// systemSnapshot runs a 2-core System and captures, per battery-backed
// buffer, the canonical CoreEntries parts over freshly restored
// controllers — the state a whole-socket recovery boot sees. It also
// returns the live System so tests can compare against its own
// CrashDrainAll image.
func systemSnapshot(t *testing.T) (*engine.System, []CoreEntries) {
	t.Helper()
	prof, err := workload.ByName("gromacs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default().WithCores(2)
	cfg.Seed = 0xC07E5
	key := []byte("secpb-experiment-key")
	sys, err := engine.NewSystem(cfg, prof, key, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}

	restore := func(mc *nvm.Controller) *nvm.Controller {
		t.Helper()
		r, err := nvm.Restore(mc.Config(), key, mc.PM().Snapshot(), mc.Counters().Snapshot(),
			mc.MACs().Snapshot(), mc.Tree().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	var parts []CoreEntries
	for c := 0; c < sys.Cores(); c++ {
		eng := sys.Core(c)
		parts = append(parts, CoreEntries{
			Core:    c,
			MC:      restore(eng.Controller()),
			Entries: eng.SecPB().AppendEntries(nil),
		})
	}
	// The shared region: both cores' shared-SecPBs drain into ONE
	// restored controller, in ascending core order after the privates.
	sharedMC := restore(sys.Shared().Controller())
	for c := 0; c < sys.Cores(); c++ {
		parts = append(parts, CoreEntries{
			Core:    c,
			MC:      sharedMC,
			Entries: sys.Shared().SecPB(c).AppendEntries(nil),
		})
	}
	pending := 0
	for _, p := range parts {
		pending += len(p.Entries)
	}
	if pending == 0 {
		t.Fatal("run left no pending entries; recovery test needs late work")
	}
	return sys, parts
}

// TestDrainSystemCanonical: replaying a whole-socket snapshot in
// canonical order yields, shard by shard, exactly the PM image a live
// battery-backed CrashDrainAll produces, and every shard audits clean.
func TestDrainSystemCanonical(t *testing.T) {
	sys, parts := systemSnapshot(t)
	if _, err := DrainSystemEntries(parts, nil); err != nil {
		t.Fatalf("canonical system drain: %v", err)
	}
	if _, err := sys.CrashDrainAll(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < sys.Cores(); c++ {
		live := sys.Core(c).Controller().PM().Snapshot()
		rec := parts[c].MC.PM().Snapshot()
		if !reflect.DeepEqual(live, rec) {
			t.Fatalf("core %d: recovered PM image differs from live crash drain", c)
		}
	}
	liveShared := sys.Shared().Controller().PM().Snapshot()
	recShared := parts[sys.Cores()].MC.PM().Snapshot()
	if !reflect.DeepEqual(liveShared, recShared) {
		t.Fatal("shared region: recovered PM image differs from live crash drain")
	}
	for i, p := range parts {
		rep, err := AuditImage(p.MC)
		if err != nil {
			t.Fatalf("part %d audit: %v", i, err)
		}
		if !rep.Clean() {
			t.Fatalf("part %d (core %d) audit not clean: %v", i, p.Core, rep)
		}
	}
}

// TestDrainSystemPermutedOrderFails is the negative control demanded by
// the cross-core drain semantics: any replay order other than the
// sealed canonical one must surface as a typed corruption error before
// an entry drains out of turn.
func TestDrainSystemPermutedOrderFails(t *testing.T) {
	_, parts := systemSnapshot(t)
	permutations := [][]int{
		{1, 0, 2, 3}, // private cores swapped
		{2, 3, 0, 1}, // shared region before private
		{3, 2, 1, 0}, // full reversal
	}
	for _, order := range permutations {
		_, err := DrainSystemEntries(parts, order)
		if err == nil {
			t.Fatalf("order %v: permuted replay did not fail", order)
		}
		var cerr *nvm.CorruptStateError
		if !errors.As(err, &cerr) {
			t.Fatalf("order %v: want *nvm.CorruptStateError, got %v", order, err)
		}
	}
}

// TestDrainSystemCursorEnforced: the journal's cursor survives partial
// replay — after draining part 0, offering part 0 again or part 2 next
// both fail, while part 1 proceeds.
func TestDrainSystemCursorEnforced(t *testing.T) {
	_, parts := systemSnapshot(t)
	j := NewSystemJournal(parts)
	if _, err := j.DrainPart(0); err != nil {
		t.Fatal(err)
	}
	var cerr *nvm.CorruptStateError
	if _, err := j.DrainPart(0); !errors.As(err, &cerr) {
		t.Fatalf("replayed part 0 out of turn: %v", err)
	}
	if _, err := j.DrainPart(2); !errors.As(err, &cerr) {
		t.Fatalf("skipped ahead to part 2: %v", err)
	}
	if _, err := j.DrainPart(1); err != nil {
		t.Fatalf("canonical part 1 refused: %v", err)
	}
	if j.Drained() != 2 {
		t.Fatalf("cursor %d after two drains", j.Drained())
	}
}

// TestSystemJournalTamperDetected: entry payload damage after sealing is
// caught before any drain.
func TestSystemJournalTamperDetected(t *testing.T) {
	_, parts := systemSnapshot(t)
	j := NewSystemJournal(parts)
	tampered := false
	for i := range j.parts {
		if len(j.parts[i].Entries) > 0 {
			j.parts[i].Entries[0].Data[0] ^= 1
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no entries to tamper")
	}
	var cerr *nvm.CorruptStateError
	if _, err := j.DrainPart(0); !errors.As(err, &cerr) {
		t.Fatalf("tampered journal drained: %v", err)
	}
}
