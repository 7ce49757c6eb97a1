package crashsim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/workload"
)

// TestCrashMatrixSmoke is the always-on gate: every SecPB scheme must
// recover byte-identically from a sampled set of crash points on a
// short trace. The full-budget sweep lives in TestCrashMatrixFull.
func TestCrashMatrixSmoke(t *testing.T) {
	m, err := Explore(context.Background(), Options{Ops: 600, Seed: 42, Points: 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(m.Cells))
	}
	for _, c := range m.Cells {
		if c.Failures > 0 {
			t.Errorf("%s/%s: %d failures, first: %s", c.Scheme, c.Workload, c.Failures, c.FirstBad)
		}
		if c.Injected == 0 {
			t.Errorf("%s/%s: no crash points injected", c.Scheme, c.Workload)
		}
	}
}

// TestCrashMatrixFull is the acceptance-budget sweep: at least 500
// injected crash points per scheme, across two access patterns, every
// recovery byte-identical to the golden model.
func TestCrashMatrixFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full crash matrix skipped in -short")
	}
	m, err := Explore(context.Background(), Options{
		Ops:       6000,
		Seed:      0x5ec9b,
		Points:    300,
		Workloads: []string{"gcc", "povray"},
	})
	if err != nil {
		t.Fatal(err)
	}
	perScheme := make(map[string]int)
	for _, c := range m.Cells {
		if c.Failures > 0 {
			t.Errorf("%s/%s: %d failures, first: %s", c.Scheme, c.Workload, c.Failures, c.FirstBad)
		}
		perScheme[c.Scheme] += c.Injected
	}
	for _, s := range config.SecPBSchemes() {
		if perScheme[s.String()] < 500 {
			t.Errorf("scheme %s: only %d crash points injected, want >= 500", s, perScheme[s.String()])
		}
	}
}

// TestExhaustiveEnumeration drives every single crash point of a small
// trace (Points<=0 selects exhaustive mode).
func TestExhaustiveEnumeration(t *testing.T) {
	cell, err := RunCell(config.SchemeCOBCM, "gcc", Options{Ops: 300, Seed: 9, Points: 0})
	if err != nil {
		t.Fatal(err)
	}
	if cell.TotalPoints == 0 || uint64(cell.Injected) != cell.TotalPoints {
		t.Fatalf("exhaustive run injected %d of %d points", cell.Injected, cell.TotalPoints)
	}
	if cell.Failures > 0 {
		t.Fatalf("%d failures, first: %s", cell.Failures, cell.FirstBad)
	}
}

// TestExploreDeterministic pins the artifact: the same options must
// produce byte-identical JSON regardless of worker-pool size.
func TestExploreDeterministic(t *testing.T) {
	opts := Options{Ops: 500, Seed: 1234, Points: 10, Workloads: []string{"gcc"}}
	render := func(workers int) []byte {
		o := opts
		o.Workers = workers
		m, err := Explore(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(4)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("serial and parallel artifacts differ:\n%s\nvs\n%s", serial, parallel)
	}
	if again := render(4); !bytes.Equal(parallel, again) {
		t.Error("two identical parallel runs produced different artifacts")
	}
}

// TestInjectionIsTransparent checks that capturing, recovering and
// verifying snapshots mid-run does not perturb the run itself: an
// injected run must collect the exact Result of an uninstrumented one.
func TestInjectionIsTransparent(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default().WithScheme(config.SchemeOBCM)
	cfg.Seed = 77
	key := []byte("transparency-key")
	ops, err := workload.Generate(prof, cfg.Seed, 1500)
	if err != nil {
		t.Fatal(err)
	}

	count, err := newInjector(newRig(), cfg, prof, key, ops, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := count.Run(); err != nil {
		t.Fatal(err)
	}
	total, _ := count.Points()
	triggers := chooseTriggers(total, 30, 5)

	inj, err := newInjector(newRig(), cfg, prof, key, ops, triggers, func(snap *Snapshot, golden map[addr.Block][addr.BlockBytes]byte) error {
		_, err := snap.RecoverVerify(golden)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Run(); err != nil {
		t.Fatal(err)
	}

	plain, err := newInjector(newRig(), cfg, prof, key, ops, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Run without any sink installed at all: the reference execution.
	if err := plain.eng.RunBatch(plain.src); err != nil {
		t.Fatal(err)
	}

	got := inj.eng.Collect()
	want := plain.eng.Collect()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("injection perturbed the run:\ninjected: %+v\nreference: %+v", got, want)
	}
}

// TestDetectsDroppedEntry is the negative control for battery state: if
// recovery is denied one battery-backed entry, verification must notice
// — otherwise the whole matrix could pass vacuously.
func TestDetectsDroppedEntry(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default().WithScheme(config.SchemeCOBCM)
	cfg.Seed = 3
	key := []byte("negative-control-key")
	ops, err := workload.Generate(prof, cfg.Seed, 1200)
	if err != nil {
		t.Fatal(err)
	}
	count, err := newInjector(newRig(), cfg, prof, key, ops, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := count.Run(); err != nil {
		t.Fatal(err)
	}
	total, _ := count.Points()
	triggers := chooseTriggers(total, 20, 11)

	caught, eligible := 0, 0
	inj, err := newInjector(newRig(), cfg, prof, key, ops, triggers, func(snap *Snapshot, golden map[addr.Block][addr.BlockBytes]byte) error {
		if len(snap.entries) == 0 {
			return nil
		}
		eligible++
		snap.entries = snap.entries[:len(snap.entries)-1] // the battery "fails" one entry
		res, err := snap.RecoverVerify(golden)
		if err != nil {
			return err
		}
		if res.Failures > 0 {
			caught++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Run(); err != nil {
		t.Fatal(err)
	}
	if eligible == 0 {
		t.Fatal("no crash point had battery-backed entries; negative control vacuous")
	}
	if caught == 0 {
		t.Errorf("dropped a battery-backed entry at %d crash points, verification never noticed", eligible)
	}
}

// TestDetectsWrongGolden is the negative control for the differential
// check itself: recovery against a falsified golden image must fail.
func TestDetectsWrongGolden(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default().WithScheme(config.SchemeBCM)
	cfg.Seed = 21
	key := []byte("wrong-golden-key")
	ops, err := workload.Generate(prof, cfg.Seed, 800)
	if err != nil {
		t.Fatal(err)
	}
	count, err := newInjector(newRig(), cfg, prof, key, ops, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := count.Run(); err != nil {
		t.Fatal(err)
	}
	total, _ := count.Points()
	// Pick one late crash point so plenty of blocks are committed.
	triggers := []uint64{total - 1}

	ran := false
	inj, err := newInjector(newRig(), cfg, prof, key, ops, triggers, func(snap *Snapshot, golden map[addr.Block][addr.BlockBytes]byte) error {
		ran = true
		forged := make(map[addr.Block][addr.BlockBytes]byte, len(golden))
		for b, v := range golden {
			forged[b] = v
		}
		for b, v := range forged {
			v[0] ^= 0xFF
			forged[b] = v
			break
		}
		res, err := snap.RecoverVerify(forged)
		if err != nil {
			return err
		}
		if res.Failures == 0 {
			t.Error("verification accepted a falsified golden image")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("handler never ran")
	}
}

// TestNestedBudgetCrashResume models a degraded battery: the first
// recovery boot funds only one entry of late work, crashes again, and a
// second boot resumes from the persistent late-work journal. Every
// snapshot with enough pending entries must go through the nested crash
// and still recover byte-identical to the golden model.
func TestNestedBudgetCrashResume(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("nested-crash-resume-key")
	schemes := []config.Scheme{config.SchemeNoGap, config.SchemeCOBCM}
	if !testing.Short() {
		schemes = config.SecPBSchemes()
	}
	for _, scheme := range schemes {
		cfg := config.Default().WithScheme(scheme)
		cfg.Seed = 0xBA77
		ops, err := workload.Generate(prof, cfg.Seed, 1200)
		if err != nil {
			t.Fatal(err)
		}
		nested, skipped := 0, 0
		cell, err := InjectTraceWith(cfg, prof, key, ops, TraceOptions{Points: 25, Seed: 0xBA77 ^ 0xC0FFEE},
			func(snap *Snapshot, golden map[addr.Block][addr.BlockBytes]byte) error {
				if snap.NumEntries() < 2 {
					skipped++ // budget covers everything; no nested crash possible
					return nil
				}
				res, err := snap.RecoverVerifyResumable(golden, 1, false)
				if err != nil {
					return err
				}
				if !res.Exhausted || !res.Resumed {
					t.Errorf("%s point %d: %d entries but exhausted=%v resumed=%v",
						scheme, snap.PointIndex, snap.NumEntries(), res.Exhausted, res.Resumed)
				}
				if res.Failures > 0 {
					t.Errorf("%s point %d: resumed recovery failed: %s", scheme, snap.PointIndex, res.FirstBad)
				}
				nested++
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if nested == 0 {
			t.Errorf("%s: no crash point had >=2 pending entries (injected %d, skipped %d); nested-crash test vacuous",
				scheme, cell.Injected, skipped)
		}
	}
}

// TestNestedCrashDroppedJournalDetected is the negative control: when
// the nested crash also destroys the late-work journal, the second boot
// cannot resume, and verification must find the undrained entries
// missing at least somewhere — otherwise the resume path could be a
// no-op and the positive test above would pass vacuously.
func TestNestedCrashDroppedJournalDetected(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default().WithScheme(config.SchemeCOBCM)
	cfg.Seed = 0xD10
	key := []byte("dropped-journal-key")
	ops, err := workload.Generate(prof, cfg.Seed, 1200)
	if err != nil {
		t.Fatal(err)
	}
	exhausted, caught := 0, 0
	_, err = InjectTraceWith(cfg, prof, key, ops, TraceOptions{Points: 25, Seed: 0xD10 ^ 0xC0FFEE},
		func(snap *Snapshot, golden map[addr.Block][addr.BlockBytes]byte) error {
			if snap.NumEntries() < 2 {
				return nil
			}
			res, err := snap.RecoverVerifyResumable(golden, 1, true)
			if err != nil {
				return err
			}
			if !res.Exhausted {
				t.Errorf("point %d: %d entries but no battery exhaustion", snap.PointIndex, snap.NumEntries())
			}
			if res.Resumed {
				t.Errorf("point %d: resumed despite dropped journal", snap.PointIndex)
			}
			exhausted++
			if res.Failures > 0 {
				caught++
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if exhausted == 0 {
		t.Fatal("no nested crash occurred; negative control vacuous")
	}
	if caught == 0 {
		t.Errorf("journal dropped at %d nested crashes, verification never noticed the undrained entries", exhausted)
	}
}

func TestChooseTriggers(t *testing.T) {
	got := chooseTriggers(1000, 50, 7)
	if len(got) != 50 {
		t.Fatalf("got %d triggers, want 50", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("triggers not strictly ascending at %d: %v", i, got[i-1:i+1])
		}
	}
	if got[len(got)-1] >= 1000 {
		t.Fatalf("trigger %d out of range", got[len(got)-1])
	}
	if again := chooseTriggers(1000, 50, 7); !reflect.DeepEqual(got, again) {
		t.Error("sampling not deterministic for equal seeds")
	}
	if all := chooseTriggers(12, 0, 1); len(all) != 12 || all[0] != 0 || all[11] != 11 {
		t.Errorf("exhaustive enumeration wrong: %v", all)
	}
	if all := chooseTriggers(5, 99, 1); len(all) != 5 {
		t.Errorf("k>total should enumerate, got %v", all)
	}
}
