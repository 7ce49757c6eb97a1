package engine

import (
	"testing"

	"secpb/internal/config"
	"secpb/internal/workload"
)

// Ablation tests for the design choices DESIGN.md calls out: the
// data-value-independent coalescing optimization (Section IV.A) and
// speculative integrity verification.

func TestAblationCoalescingOptimization(t *testing.T) {
	// Without the optimization, NoGap/M/CM must redo counter/OTP/BMT
	// per store; povray (NWPE ~17) should slow down dramatically.
	prof := mustProfile(t, "povray")
	withOpt := config.Default().WithScheme(config.SchemeCM)
	withoutOpt := withOpt
	withoutOpt.DisableDVICoalescing = true

	on, err := RunBenchmark(withOpt, prof, 20000)
	if err != nil {
		t.Fatal(err)
	}
	off, err := RunBenchmark(withoutOpt, prof, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if off.Cycles < 2*on.Cycles {
		t.Errorf("disabling coalescing sped CM up?! on=%d off=%d cycles", on.Cycles, off.Cycles)
	}
	// The optimization is exactly what keeps BMT walks at one per entry.
	if off.EarlyBMTWalks <= on.EarlyBMTWalks {
		t.Errorf("early BMT walks: on=%d off=%d, ablation should walk per store",
			on.EarlyBMTWalks, off.EarlyBMTWalks)
	}
	if off.EarlyBMTWalks < off.Stores*9/10 {
		t.Errorf("ablated CM walked %d times for %d stores, want ~per-store", off.EarlyBMTWalks, off.Stores)
	}
}

func TestAblationCoalescingDelaysCounterOverflow(t *testing.T) {
	// Section IV.A: "this optimization avoids incrementing the counter
	// frequently for a single dirty block, delaying counter overflow
	// which requires page re-encryption." With 8-bit minors and a hot
	// block written thousands of times, the ablated design re-encrypts
	// pages while the optimized one does not.
	prof := mustProfile(t, "povray") // 96-block hot set, heavy rewrites
	base := config.Default().WithScheme(config.SchemeNoGap)
	ablated := base
	ablated.DisableDVICoalescing = true

	on, err := RunBenchmark(base, prof, 60000)
	if err != nil {
		t.Fatal(err)
	}
	off, err := RunBenchmark(ablated, prof, 60000)
	if err != nil {
		t.Fatal(err)
	}
	if off.Reencryptions <= on.Reencryptions {
		t.Errorf("re-encryptions: optimized=%d ablated=%d; ablation must overflow counters faster",
			on.Reencryptions, off.Reencryptions)
	}
}

func TestAblationCoalescingStillRecovers(t *testing.T) {
	// Correctness must not depend on the optimization: the ablated
	// design's multi-increment drains still produce a verifiable image.
	for _, scheme := range []config.Scheme{config.SchemeNoGap, config.SchemeCM} {
		cfg := config.Default().WithScheme(scheme)
		cfg.DisableDVICoalescing = true
		prof := mustProfile(t, "povray")
		e, err := New(cfg, prof, []byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewGenerator(prof, 5, 8000)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunBatch(gen); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if _, _, err := e.SecPB().CrashDrain(); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		for block, want := range e.Memory() {
			got, _, err := e.Controller().FetchBlock(block)
			if err != nil {
				t.Fatalf("%v: %v", scheme, err)
			}
			if got != want {
				t.Fatalf("%v: plaintext mismatch at %#x", scheme, block.Addr())
			}
		}
	}
}

func TestAblationSpeculativeVerification(t *testing.T) {
	// Non-speculative verification exposes the MAC + BMT-walk latency
	// on every PM read; a miss-heavy workload must slow down.
	prof := mustProfile(t, "mcf")
	spec := config.Default().WithScheme(config.SchemeCOBCM)
	nonspec := spec
	nonspec.Speculative = false

	fast, err := RunBenchmark(spec, prof, 30000)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunBenchmark(nonspec, prof, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Cycles <= fast.Cycles {
		t.Errorf("non-speculative verification not slower: %d vs %d", slow.Cycles, fast.Cycles)
	}
	// And it must not change functional results.
	if slow.PMWrites != fast.PMWrites || slow.Stores != fast.Stores {
		t.Error("verification mode changed functional behaviour")
	}
}

func TestSpeculativeKnobIrrelevantForInsecure(t *testing.T) {
	prof := mustProfile(t, "mcf")
	a := config.Default().WithScheme(config.SchemeBBB)
	b := a
	b.Speculative = false
	ra, err := RunBenchmark(a, prof, 10000)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunBenchmark(b, prof, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Cycles != rb.Cycles {
		t.Error("speculation knob changed the insecure baseline")
	}
}
