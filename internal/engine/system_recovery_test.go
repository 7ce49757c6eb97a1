package engine_test

import (
	"testing"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/recovery"
	"secpb/internal/workload"
)

// TestSystemCrashDrain: a whole-socket crash drain persists every
// private and shared SecPB entry; afterwards shared PM passes the
// recovered-image check against the coherent view and no line remains
// Modified.
func TestSystemCrashDrain(t *testing.T) {
	prof, err := workload.ByName("gromacs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default().WithCores(2)
	sys, err := engine.NewSystem(cfg, prof, []byte("secpb-experiment-key"), 3000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	drained, err := sys.CrashDrainAll()
	if err != nil {
		t.Fatalf("CrashDrainAll: %v", err)
	}
	t.Logf("crash drain persisted %d entries", drained)
	for i := 0; i < sys.Cores(); i++ {
		if occ := sys.Core(i).Occupancy(); occ != 0 {
			t.Fatalf("core %d still holds %d private entries after crash drain", i, occ)
		}
	}
	var rep recovery.Report
	if err := new(recovery.Verifier).Verify(sys.Shared().Controller(), sys.Shared().Memory(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("shared region recovery: %s", rep)
	}
	if mod := sys.Shared().Directory().Modified(); len(mod) != 0 {
		t.Fatalf("%d lines still Modified after crash drain", len(mod))
	}
}
