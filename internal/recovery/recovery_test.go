package recovery

import (
	"strings"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/workload"
	"secpb/internal/xrand"
)

// crashedEngine runs nops of the named benchmark under the scheme and
// returns the engine at the crash point.
func crashedEngine(t *testing.T, scheme config.Scheme, bench string, seed uint64, nops uint64) *engine.Engine {
	t.Helper()
	cfg := config.Default().WithScheme(scheme)
	cfg.Seed = seed
	return runEngine(t, cfg, bench, nops)
}

// runEngine runs nops of the named benchmark under cfg, generated from
// cfg.Seed, and returns the engine at the crash point.
func runEngine(t *testing.T, cfg config.Config, bench string, nops uint64) *engine.Engine {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(cfg, prof, []byte("recovery-test"))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, cfg.Seed, nops)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunBatch(gen); err != nil {
		t.Fatal(err)
	}
	return e
}

// someVictim returns a persisted block to attack.
func someVictim(t *testing.T, e *engine.Engine) addr.Block {
	t.Helper()
	blocks := e.Controller().PM().Blocks()
	if len(blocks) == 0 {
		t.Fatal("no persisted blocks")
	}
	best := blocks[0]
	for _, b := range blocks {
		if b < best {
			best = b
		}
	}
	return best
}

func TestCrashRecoveryCleanAllSchemes(t *testing.T) {
	// The headline invariant: for every scheme, a crash at an arbitrary
	// point recovers exactly the persist-order prefix with verification
	// passing.
	for _, scheme := range config.SecPBSchemes() {
		e := crashedEngine(t, scheme, "gcc", 1, 3000)
		rep, err := CrashAndRecover(e)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !rep.Clean() {
			t.Fatalf("%v: %s", scheme, rep)
		}
		if rep.BlocksChecked == 0 {
			t.Fatalf("%v: nothing recovered", scheme)
		}
	}
}

func TestCrashRecoveryRandomized(t *testing.T) {
	// Sweep schemes x crash points x workloads with derived seeds.
	r := xrand.New(0xC4A54)
	benches := []string{"gamess", "povray", "mcf", "bwaves"}
	for trial := 0; trial < 24; trial++ {
		scheme := config.SecPBSchemes()[trial%6]
		bench := benches[trial%len(benches)]
		nops := 500 + uint64(r.Intn(4000))
		e := crashedEngine(t, scheme, bench, r.Uint64(), nops)
		rep, err := CrashAndRecover(e)
		if err != nil {
			t.Fatalf("trial %d (%v/%s/%d ops): %v", trial, scheme, bench, nops, err)
		}
		if !rep.Clean() {
			t.Fatalf("trial %d (%v/%s/%d ops): %s", trial, scheme, bench, nops, rep)
		}
	}
}

func TestGapCrashCorrupts(t *testing.T) {
	// The motivation (Figure 1b): without SecPB's coordination, a
	// persistent-hierarchy crash yields wrong plaintext and failed
	// integrity verification.
	e := crashedEngine(t, config.SchemeCOBCM, "povray", 7, 3000)
	if e.SecPB().Len() == 0 {
		t.Fatal("no entries resident at crash; pick a larger run")
	}
	rep, err := GapCrash(e)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("recoverability-gap crash recovered cleanly — the gap the paper closes is not being modelled")
	}
	if rep.Failures == 0 {
		t.Error("gap crash produced no verification failures")
	}
}

func TestGapCrashRequiresSecureController(t *testing.T) {
	e := crashedEngine(t, config.SchemeBBB, "gcc", 1, 500)
	if _, err := GapCrash(e); err == nil {
		t.Error("GapCrash accepted insecure controller")
	}
}

func TestAllAttacksDetected(t *testing.T) {
	for _, scheme := range []config.Scheme{config.SchemeCOBCM, config.SchemeNoGap, config.SchemeCM} {
		for _, a := range Attacks() {
			e := crashedEngine(t, scheme, "gcc", 11, 2000)
			victim := someVictim(t, e)
			detected, err := RunAttack(e, a, victim)
			if err != nil {
				t.Fatalf("%v/%v: %v", scheme, a, err)
			}
			if !detected {
				t.Errorf("%v: attack %v went undetected", scheme, a)
			}
		}
	}
}

func TestAttackOnMissingVictim(t *testing.T) {
	e := crashedEngine(t, config.SchemeCOBCM, "gcc", 1, 500)
	if _, err := RunAttack(e, AttackData, addr.BlockOf(0x7FFF0000)); err == nil {
		t.Error("attack on unpersisted block accepted")
	}
}

func TestObserverPolicies(t *testing.T) {
	e := crashedEngine(t, config.SchemeCOBCM, "gamess", 3, 3000)
	obs, err := Crash(e, Blocking, PowerLoss)
	if err != nil {
		t.Fatal(err)
	}
	if obs.DrainCycles == 0 || obs.ReadyCycle != obs.CrashCycle+obs.DrainCycles {
		t.Errorf("drain timing wrong: %+v", obs)
	}
	// Blocking: querying early stalls to ReadyCycle.
	ok, at := obs.ConsistentAt(obs.CrashCycle)
	if !ok || at != obs.ReadyCycle {
		t.Errorf("blocking query = (%v,%d), want (true,%d)", ok, at, obs.ReadyCycle)
	}
	ok, at = obs.ConsistentAt(obs.ReadyCycle + 5)
	if !ok || at != obs.ReadyCycle+5 {
		t.Errorf("late blocking query = (%v,%d)", ok, at)
	}
	// Warning: early queries see the warning.
	obs.Policy = Warning
	if ok, _ := obs.ConsistentAt(obs.CrashCycle); ok {
		t.Error("warning policy reported consistent before drain finished")
	}
	if ok, _ := obs.ConsistentAt(obs.ReadyCycle); !ok {
		t.Error("warning policy still inconsistent after drain")
	}
}

func TestLazySchemesNeedBiggerCrashDrain(t *testing.T) {
	// The sec-sync gap: COBCM's battery does strictly more work than
	// NoGap's for the same resident entries.
	eLazy := crashedEngine(t, config.SchemeCOBCM, "povray", 5, 2000)
	eEager := crashedEngine(t, config.SchemeNoGap, "povray", 5, 2000)
	repLazy, err := CrashAndRecover(eLazy)
	if err != nil {
		t.Fatal(err)
	}
	repEager, err := CrashAndRecover(eEager)
	if err != nil {
		t.Fatal(err)
	}
	if repLazy.EntriesDrained == 0 || repEager.EntriesDrained == 0 {
		t.Skip("no resident entries at crash point")
	}
	lazyPerEntry := float64(repLazy.DrainCost.Hashes) / float64(repLazy.EntriesDrained)
	eagerPerEntry := float64(repEager.DrainCost.Hashes) / float64(repEager.EntriesDrained)
	if lazyPerEntry <= eagerPerEntry {
		t.Errorf("COBCM crash drain (%.1f hashes/entry) not heavier than NoGap (%.1f)",
			lazyPerEntry, eagerPerEntry)
	}
}

func TestAppCrashDrainAll(t *testing.T) {
	e := crashedEngine(t, config.SchemeOBCM, "gcc", 9, 2000)
	resident := e.SecPB().Len()
	obs, err := Crash(e, Warning, AppCrash)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Report.EntriesDrained != resident {
		t.Errorf("drain-all drained %d of %d entries", obs.Report.EntriesDrained, resident)
	}
	if e.SecPB().Len() != 0 {
		t.Error("entries left after app-crash drain")
	}
}

func TestSchemeDrainWork(t *testing.T) {
	if w := SchemeDrainWork(config.SchemeNoGap); len(w) != 1 || !strings.Contains(w[0], "none") {
		t.Errorf("NoGap drain work = %v", w)
	}
	w := SchemeDrainWork(config.SchemeCOBCM)
	if len(w) != 5 {
		t.Errorf("COBCM drain work = %v, want all five tuple steps", w)
	}
	if w := SchemeDrainWork(config.SchemeBCM); len(w) != 3 {
		t.Errorf("BCM drain work = %v, want 3 (ct, MAC, BMT)", w)
	}
}

func TestNames(t *testing.T) {
	if Blocking.String() != "blocking" || Warning.String() != "warning" {
		t.Error("policy names")
	}
	if PowerLoss.String() != "power-loss" || AppCrash.String() != "app-crash" {
		t.Error("crash kind names")
	}
	for _, a := range Attacks() {
		if strings.Contains(a.String(), "attack(") {
			t.Errorf("attack %d unnamed", a)
		}
	}
}

func TestReportString(t *testing.T) {
	r := Report{EntriesDrained: 3, BlocksChecked: 10}
	if !strings.Contains(r.String(), "CLEAN") {
		t.Errorf("clean report: %s", r)
	}
	r.Fail("block 0x40")
	r.Fail("block 0x80")
	if r.Failures != 2 || !strings.Contains(r.String(), "2 failures [CORRUPT: block 0x40]") {
		t.Errorf("corrupt report: %s", r)
	}
}

func TestAuditCleanImage(t *testing.T) {
	e := crashedEngine(t, config.SchemeCOBCM, "gcc", 21, 4000)
	if _, err := CrashAndRecover(e); err != nil {
		t.Fatal(err)
	}
	rep, err := AuditImage(e.Controller())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("healthy image failed audit: %s", rep)
	}
	if rep.Blocks == 0 || rep.CounterLines == 0 {
		t.Errorf("audit scope empty: %s", rep)
	}
}

func TestAuditDetectsEveryTamperClass(t *testing.T) {
	mutate := []struct {
		name string
		do   func(t *testing.T, e *engine.Engine)
	}{
		{"data bit", func(t *testing.T, e *engine.Engine) {
			if err := e.Controller().PM().Tamper(someVictim(t, e), 5); err != nil {
				t.Fatal(err)
			}
		}},
		{"mac bit", func(t *testing.T, e *engine.Engine) {
			if err := e.Controller().MACs().Tamper(someVictim(t, e), 9); err != nil {
				t.Fatal(err)
			}
		}},
		{"counter", func(t *testing.T, e *engine.Engine) {
			v := someVictim(t, e)
			if err := e.Controller().Counters().Tamper(v, uint8(e.Controller().Counters().Value(v))+3); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range mutate {
		e := crashedEngine(t, config.SchemeCOBCM, "gcc", 23, 3000)
		if _, err := CrashAndRecover(e); err != nil {
			t.Fatal(err)
		}
		tc.do(t, e)
		rep, err := AuditImage(e.Controller())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Clean() {
			t.Errorf("%s tamper passed the full audit", tc.name)
		}
	}
}

func TestAuditRejectsInsecure(t *testing.T) {
	e := crashedEngine(t, config.SchemeBBB, "gcc", 1, 500)
	if _, err := AuditImage(e.Controller()); err == nil {
		t.Error("insecure controller audited")
	}
}
