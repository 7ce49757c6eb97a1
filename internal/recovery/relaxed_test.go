package recovery

import (
	"testing"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// Section IV.C.b: under relaxed memory consistency, stores may reach the
// SecPB out of program order. For lazy schemes (COBCM) the security
// metadata update is performed out of order too, which is legal because
// the crash observer only sees post-drain state. These tests run a
// store stream through a bounded-window reordering (per-block order and
// fences preserved, as hardware guarantees) and require that crash
// recovery still yields exactly the final state.

func relaxedEngine(t *testing.T, scheme config.Scheme, window int) *engine.Engine {
	t.Helper()
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	ops, err := workload.Generate(prof, 77, 6000)
	if err != nil {
		t.Fatal(err)
	}
	reordered := trace.Reorder(ops, window, 123)
	cfg := config.Default().WithScheme(scheme)
	e, err := engine.New(cfg, prof, []byte("relaxed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunBatch(trace.NewSliceBatchSource(reordered)); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRelaxedOrderRecoversCleanly(t *testing.T) {
	for _, scheme := range []config.Scheme{config.SchemeCOBCM, config.SchemeOBCM, config.SchemeNoGap} {
		e := relaxedEngine(t, scheme, 16)
		rep, err := CrashAndRecover(e)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !rep.Clean() {
			t.Fatalf("%v: %s", scheme, rep)
		}
	}
}

func TestRelaxedAndInOrderConverge(t *testing.T) {
	// Because per-block order is preserved, the final persistent state
	// after a full drain must be identical regardless of the window.
	inOrder := relaxedEngine(t, config.SchemeCOBCM, 1)
	relaxed := relaxedEngine(t, config.SchemeCOBCM, 32)
	if _, err := CrashAndRecover(inOrder); err != nil {
		t.Fatal(err)
	}
	if _, err := CrashAndRecover(relaxed); err != nil {
		t.Fatal(err)
	}
	memA, memB := inOrder.Memory(), relaxed.Memory()
	if len(memA) != len(memB) {
		t.Fatalf("footprints differ: %d vs %d blocks", len(memA), len(memB))
	}
	for block, want := range memA {
		gotA, _, err := inOrder.Controller().FetchBlock(block)
		if err != nil {
			t.Fatal(err)
		}
		gotB, _, err := relaxed.Controller().FetchBlock(block)
		if err != nil {
			t.Fatal(err)
		}
		if gotA != want || gotB != want {
			t.Fatalf("block %#x: in-order/relaxed final states diverge", block.Addr())
		}
	}
}
