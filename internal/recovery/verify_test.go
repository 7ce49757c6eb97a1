package recovery

import (
	"fmt"
	"strings"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/nvm"
)

// TestVerifyImagePhantomBeforeLost crafts a golden image that disagrees
// with a clean PM image in both directions: one persisted block the
// golden model never committed (a phantom) and one committed block that
// never persisted (lost, with zero plaintext so no other check trips
// over it). The lost block sits below the phantom in address order, so
// a walk that reported in plain address order would name it first;
// check 2 must count both and report the phantom first.
func TestVerifyImagePhantomBeforeLost(t *testing.T) {
	mc, err := nvm.NewController(config.Default(), []byte("verify-image-key"))
	if err != nil {
		t.Fatal(err)
	}
	kept, lost, phantom := addr.BlockOf(0x1000), addr.BlockOf(0x1040), addr.BlockOf(0x8000)
	var keptData, phantomData [addr.BlockBytes]byte
	keptData[0], phantomData[0] = 1, 2
	for b, data := range map[addr.Block]*[addr.BlockBytes]byte{kept: &keptData, phantom: &phantomData} {
		if _, err := mc.PersistBlock(b, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	mc.CompleteSweep()
	golden := map[addr.Block][addr.BlockBytes]byte{kept: keptData, lost: {}}

	var res Report
	if err := new(Verifier).Verify(mc, golden, &res); err != nil {
		t.Fatal(err)
	}
	if res.Failures != 2 {
		t.Errorf("Failures = %d, want 2 (one phantom, one lost): first %q", res.Failures, res.FirstBad)
	}
	if want := fmt.Sprintf("phantom block %#x persisted but never committed", phantom.Addr()); res.FirstBad != want {
		t.Errorf("FirstBad = %q, want %q", res.FirstBad, want)
	}
	if res.BlocksChecked != 2 {
		t.Errorf("BlocksChecked = %d, want 2", res.BlocksChecked)
	}
}

// TestCrashAndRecoverCatchesPhantom persists a consistent tuple for a
// block the program never stored. Every persisted tuple verifies and
// every committed block decrypts correctly, so only the block-set check
// can notice: CrashAndRecover must report the image not clean, naming
// the phantom.
func TestCrashAndRecoverCatchesPhantom(t *testing.T) {
	e := crashedEngine(t, config.SchemeCOBCM, "gcc", 1, 2000)
	phantom := addr.BlockOf(0x7fff0000)
	if _, ok := e.MemoryBlock(phantom); ok {
		t.Fatalf("block %#x is part of the program view; pick another", phantom.Addr())
	}
	var data [addr.BlockBytes]byte
	data[0] = 0x5a
	mc := e.Controller()
	if _, err := mc.PersistBlock(phantom, &data, nil); err != nil {
		t.Fatal(err)
	}
	mc.CompleteSweep()
	rep, err := CrashAndRecover(e)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatalf("phantom block went unnoticed: %s", rep)
	}
	if want := fmt.Sprintf("phantom block %#x persisted but never committed", phantom.Addr()); !strings.Contains(rep.FirstBad, want) {
		t.Errorf("FirstBad = %q, want %q", rep.FirstBad, want)
	}
}

// TestVerifyInsecureController runs the check on the BBB baseline, whose
// controller stores plaintext with no tuple: the audit and the
// derivability check do not apply, but block-set equality and plaintext
// still do.
func TestVerifyInsecureController(t *testing.T) {
	e := crashedEngine(t, config.SchemeBBB, "gcc", 1, 2000)
	rep, err := CrashAndRecover(e)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.BlocksChecked == 0 {
		t.Fatalf("BBB recovery: %s", rep)
	}
	golden := e.Memory()
	lost := e.Controller().PM().Blocks()[0]
	delete(golden, lost)
	var res Report
	if err := new(Verifier).Verify(e.Controller(), golden, &res); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("phantom block %#x persisted but never committed", lost.Addr()); res.Failures != 1 || res.FirstBad != want {
		t.Errorf("BBB set check: %d failures, first %q, want 1 and %q", res.Failures, res.FirstBad, want)
	}
}

// TestCrashUnderSPReportsCorruptState crashes an SP engine (no persist
// buffer) on rotting media: recovery is not clean, and Crash must return
// the corrupt-state error naming the scheme rather than panic.
func TestCrashUnderSPReportsCorruptState(t *testing.T) {
	cfg := config.Default().WithScheme(config.SchemeSP)
	cfg.FaultRotRate = 0.5
	e := runEngine(t, cfg, "gcc", 500)
	_, err := Crash(e, Blocking, PowerLoss)
	if err == nil {
		t.Fatal("crash on rotting media recovered clean")
	}
	if !strings.Contains(err.Error(), "left corrupt state") || !strings.Contains(err.Error(), config.SchemeSP.String()) {
		t.Errorf("error = %v, want the corrupt-state error naming %v", err, config.SchemeSP)
	}
}
