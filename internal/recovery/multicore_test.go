package recovery

import (
	"errors"
	"reflect"
	"testing"

	"secpb/internal/config"
	"secpb/internal/core"
	"secpb/internal/engine"
	"secpb/internal/nvm"
	"secpb/internal/workload"
)

// systemSnapshot runs a 2-core System and seals, over freshly restored
// controllers, a SystemJournal whose parts journal every battery-backed
// buffer in canonical order — the state a whole-socket recovery boot
// sees. It also returns the live System so tests can compare against
// its own CrashDrainAll image.
func systemSnapshot(t *testing.T) (*engine.System, *SystemJournal) {
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
	j := captureSystem(t, sys, key)
	pending := 0
	for _, p := range j.parts {
		pending += p.journal.Len()
	}
	if pending == 0 {
		t.Fatal("run left no pending entries; recovery test needs late work")
	}
	return sys, j
}

// captureSystem seals a SystemJournal over sys as a crash would find
// it: each private SecPB's journal draining into a restored copy of
// its core's shard, then each shared-region SecPB's journal draining
// into ONE restored copy of the shared controller.
func captureSystem(t *testing.T, sys *engine.System, key []byte) *SystemJournal {
	t.Helper()
	restore := func(mc *nvm.Controller) *nvm.Controller {
		t.Helper()
		r, err := nvm.Restore(mc.Config(), key, mc.PM().Snapshot(), mc.Counters().Snapshot(),
			mc.MACs().Snapshot(), mc.Tree().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	capture := func(spb *core.SecPB) *Journal {
		j := new(Journal)
		j.Capture(spb)
		return j
	}
	j := new(SystemJournal)
	j.Reset()
	for c := 0; c < sys.Cores(); c++ {
		eng := sys.Core(c)
		j.Add(c, restore(eng.Controller()), capture(eng.SecPB()))
	}
	sharedMC := restore(sys.Shared().Controller())
	for c := 0; c < sys.Cores(); c++ {
		j.Add(c, sharedMC, capture(sys.Shared().SecPB(c)))
	}
	return j
}

// pmWrites returns the PM writes of every part's controller, in part
// order.
func pmWrites(j *SystemJournal) []uint64 {
	var w []uint64
	for _, p := range j.parts {
		_, n := p.mc.PM().Stats()
		w = append(w, n)
	}
	return w
}

// TestDrainSystemCanonical: replaying a whole-socket snapshot in
// canonical order yields, shard by shard, exactly the PM image a live
// battery-backed CrashDrainAll produces, and every shard audits clean.
func TestDrainSystemCanonical(t *testing.T) {
	sys, j := systemSnapshot(t)
	if _, err := j.Drain(nil); err != nil {
		t.Fatalf("canonical system drain: %v", err)
	}
	if j.Drained() != len(j.parts) {
		t.Fatalf("drain left the cursor at %d of %d", j.Drained(), len(j.parts))
	}
	if _, err := sys.CrashDrainAll(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < sys.Cores(); c++ {
		live := sys.Core(c).Controller().PM().Snapshot()
		rec := j.parts[c].mc.PM().Snapshot()
		if !reflect.DeepEqual(live, rec) {
			t.Fatalf("core %d: recovered PM image differs from live crash drain", c)
		}
	}
	liveShared := sys.Shared().Controller().PM().Snapshot()
	recShared := j.parts[sys.Cores()].mc.PM().Snapshot()
	if !reflect.DeepEqual(liveShared, recShared) {
		t.Fatal("shared region: recovered PM image differs from live crash drain")
	}
	for i, p := range j.parts {
		rep, err := AuditImage(p.mc)
		if err != nil {
			t.Fatalf("part %d audit: %v", i, err)
		}
		if !rep.Clean() {
			t.Fatalf("part %d (core %d) audit not clean: %v", i, p.core, rep)
		}
	}
}

// TestDrainSystemPermutedOrderFails is the negative control demanded by
// the cross-core drain semantics: any replay order other than the
// sealed canonical one must surface as a typed corruption error before
// an entry drains out of turn.
func TestDrainSystemPermutedOrderFails(t *testing.T) {
	_, j := systemSnapshot(t)
	before := pmWrites(j)
	permutations := [][]int{
		{1, 0, 2, 3}, // private cores swapped
		{2, 3, 0, 1}, // shared region before private
		{3, 2, 1, 0}, // full reversal
	}
	for _, order := range permutations {
		_, err := j.Drain(order)
		if err == nil {
			t.Fatalf("order %v: permuted replay did not fail", order)
		}
		var cerr *nvm.CorruptStateError
		if !errors.As(err, &cerr) {
			t.Fatalf("order %v: want *nvm.CorruptStateError, got %v", order, err)
		}
	}
	if after := pmWrites(j); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused replays wrote to PM: writes %v -> %v", before, after)
	}
}

// TestDrainSystemCursorEnforced: the journal's cursor survives partial
// replay — after draining part 0, offering part 0 again or part 2 next
// both fail, while part 1 proceeds.
func TestDrainSystemCursorEnforced(t *testing.T) {
	_, j := systemSnapshot(t)
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

// TestSystemJournalTamperDetected: entry payload damage in a part's
// journal after sealing is caught before any of that part's entries
// drain.
func TestSystemJournalTamperDetected(t *testing.T) {
	_, j := systemSnapshot(t)
	k := 0
	for k < len(j.parts) && j.parts[k].journal.Len() == 0 {
		k++
	}
	for i := 0; i < k; i++ {
		if _, err := j.DrainPart(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.parts[k].journal.Tamper(); err != nil {
		t.Fatal(err)
	}
	before := pmWrites(j)
	var cerr *nvm.CorruptStateError
	if _, err := j.DrainPart(k); !errors.As(err, &cerr) {
		t.Fatalf("tampered journal drained: %v", err)
	}
	if after := pmWrites(j); !reflect.DeepEqual(before, after) {
		t.Fatalf("tampered part wrote to PM: writes %v -> %v", before, after)
	}
}

// TestSystemJournalPartSwapDetected: swapping two parts' journals after
// sealing — each part keeping its core id and controller, so the entries
// would drain into the wrong shard — is refused before any entry drains.
// The core ids alone cannot catch it; the seal must cover each part's
// journal.
func TestSystemJournalPartSwapDetected(t *testing.T) {
	_, j := systemSnapshot(t)
	a, b := &j.parts[0], &j.parts[1]
	if a.journal.Len() == 0 && b.journal.Len() == 0 {
		t.Fatal("both private journals empty; swap undetectable and harmless")
	}
	a.journal, b.journal = b.journal, a.journal
	before := pmWrites(j)
	_, err := j.Drain(nil)
	var cerr *nvm.CorruptStateError
	if !errors.As(err, &cerr) {
		t.Fatalf("swapped journals drained: %v", err)
	}
	if after := pmWrites(j); !reflect.DeepEqual(before, after) {
		t.Fatalf("swapped journals wrote to PM: writes %v -> %v", before, after)
	}
	if j.Drained() != 0 {
		t.Fatalf("refused drain moved the cursor to %d", j.Drained())
	}
}
