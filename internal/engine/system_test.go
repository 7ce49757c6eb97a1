package engine

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"secpb/internal/config"
	"secpb/internal/workload"
)

func runSystemWorkers(t *testing.T, cfg config.Config, prof workload.Profile, nops uint64, workers int) MCResult {
	t.Helper()
	sys, err := NewSystem(cfg, prof, []byte("secpb-experiment-key"), nops)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	sys.SetWorkers(workers)
	if err := sys.Run(); err != nil {
		t.Fatalf("Run (workers=%d): %v", workers, err)
	}
	res := sys.Collect()
	if err := res.IntegrityErr(); err != nil {
		t.Fatalf("integrity violation (workers=%d): %v", workers, err)
	}
	return res
}

// TestSystemSerialParallelIdentity is the determinism backbone: stepping
// the cores on one worker or many must produce bit-identical results,
// because per-core state is disjoint during the parallel phase and all
// shared-state mutation happens at serialized barriers in canonical
// (core id, program order) order.
func TestSystemSerialParallelIdentity(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	prof := mustProfile(t, "gromacs")
	for _, scheme := range []config.Scheme{config.SchemeCM, config.SchemeCOBCM} {
		cfg := config.Default().WithScheme(scheme).WithCores(4)
		serial := runSystemWorkers(t, cfg, prof, 4000, 1)
		parallel := runSystemWorkers(t, cfg, prof, 4000, 4)
		if !reflect.DeepEqual(serial, parallel) {
			sj, _ := json.MarshalIndent(serial, "", " ")
			pj, _ := json.MarshalIndent(parallel, "", " ")
			t.Fatalf("%s: serial != parallel\nserial:  %s\nparallel: %s", scheme, sj, pj)
		}
		if serial.MESI.Migrations+serial.MESI.ReadFlushes == 0 {
			t.Fatalf("%s: no cross-core coherence traffic — test not exercising MESI", scheme)
		}
	}
}

// TestSystemRunDeterminism runs the same configuration twice and demands
// identical results (same seeds, same interleave decisions).
func TestSystemRunDeterminism(t *testing.T) {
	prof := mustProfile(t, "gcc")
	cfg := config.Default().WithCores(2)
	a := runSystemWorkers(t, cfg, prof, 3000, 2)
	b := runSystemWorkers(t, cfg, prof, 3000, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeat run diverged:\n%v\n%v", a, b)
	}
}

// TestSystemCoreSeedDivergence: distinct cores must see distinct
// workload streams (core 0 keeps the configured seed verbatim).
func TestSystemCoreSeedDivergence(t *testing.T) {
	if CoreSeed(42, 0) != 42 {
		t.Fatalf("core 0 must keep the configured seed, got %d", CoreSeed(42, 0))
	}
	seen := map[uint64]int{}
	for c := 0; c < 64; c++ {
		s := CoreSeed(42, c)
		if s == 0 {
			t.Fatalf("core %d derived the reserved zero seed", c)
		}
		if prev, ok := seen[s]; ok {
			t.Fatalf("cores %d and %d share seed %d", prev, c, s)
		}
		seen[s] = c
	}
}

// TestSystemInvariants: after a run the coherence directory must agree
// with SecPB residency (every Modified line resident at its owner, no
// replication of persist-buffer entries).
func TestSystemInvariants(t *testing.T) {
	prof := mustProfile(t, "gromacs")
	cfg := config.Default().WithCores(4)
	sys, err := NewSystem(cfg, prof, []byte("secpb-experiment-key"), 4000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Shared().CheckInvariants(); err != nil {
		t.Fatalf("coherence invariants violated after run: %v", err)
	}
}

// TestSystemCrashDrain: a whole-socket crash drain persists every
// private and shared SecPB entry; afterwards the coherent view matches
// shared PM exactly and no line remains Modified.
func TestSystemCrashDrain(t *testing.T) {
	prof := mustProfile(t, "gromacs")
	cfg := config.Default().WithCores(2)
	sys, err := NewSystem(cfg, prof, []byte("secpb-experiment-key"), 3000)
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
	if err := sys.Shared().VerifyRecovery(); err != nil {
		t.Fatalf("shared region recovery mismatch: %v", err)
	}
	if mod := sys.Shared().Directory().Modified(); len(mod) != 0 {
		t.Fatalf("%d lines still Modified after crash drain", len(mod))
	}
}

// TestSystemSingleCore: a 1-core System must not engage the coherence
// layer at all — it is the classic engine with an epoch loop around it.
func TestSystemSingleCore(t *testing.T) {
	prof := mustProfile(t, "gcc")
	cfg := config.Default() // Cores zero value → EffectiveCores()==1
	res, err := RunSystem(cfg, prof, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores != 1 {
		t.Fatalf("Cores = %d, want 1", res.Cores)
	}
	if res.MESI.Reads+res.MESI.Writes != 0 {
		t.Fatalf("single-core run generated coherence traffic: %+v", res.MESI)
	}
	// The single-core System must reproduce the classic engine result
	// exactly: same instruction count, cycles, and memory traffic.
	classic, err := RunBenchmark(cfg, prof, 3000)
	if err != nil {
		t.Fatal(err)
	}
	pc := res.PerCore[0]
	if pc.Cycles != classic.Cycles || pc.Instructions != classic.Instructions ||
		pc.Stores != classic.Stores || pc.Loads != classic.Loads ||
		pc.PMWrites != classic.PMWrites || pc.PMReads != classic.PMReads {
		t.Fatalf("1-core System diverges from classic engine:\nsystem:  %+v\nclassic: %+v", pc, classic)
	}
}

// TestSystemRejectsSP: SP has no SecPB, so there is nothing to shard or
// migrate — the multi-core path must refuse it up front.
func TestSystemRejectsSP(t *testing.T) {
	prof := mustProfile(t, "gcc")
	cfg := config.Default().WithScheme(config.SchemeSP).WithCores(2)
	if _, err := NewSystem(cfg, prof, []byte("k"), 100); err == nil {
		t.Fatal("NewSystem accepted SchemeSP at cores=2")
	}
}

// TestSystemPeakOccupancy: the battery-sizing signal must be positive
// and at least as large as final occupancy on every core.
func TestSystemPeakOccupancy(t *testing.T) {
	prof := mustProfile(t, "gromacs")
	cfg := config.Default().WithCores(2)
	sys, err := NewSystem(cfg, prof, []byte("secpb-experiment-key"), 3000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	res := sys.Collect()
	if len(res.PeakPerCore) != 2 {
		t.Fatalf("PeakPerCore has %d entries, want 2", len(res.PeakPerCore))
	}
	for i, peak := range res.PeakPerCore {
		if peak <= 0 {
			t.Fatalf("core %d peak occupancy %d, want > 0", i, peak)
		}
		if occ := sys.Core(i).Occupancy(); peak < occ {
			t.Fatalf("core %d peak %d < current occupancy %d", i, peak, occ)
		}
	}
	if res.PeakOccupancy <= 0 {
		t.Fatalf("socket peak occupancy %d, want > 0", res.PeakOccupancy)
	}
}

// TestSharedPlanDeterminism: the shared-region rewrite is a pure
// function of (seed, core, opIndex).
func TestSharedPlanDeterminism(t *testing.T) {
	cfg := config.Default().WithCores(2)
	p1, p2 := NewSharedPlan(cfg), NewSharedPlan(cfg)
	gen, err := workload.NewGenerator(mustProfile(t, "gcc"), cfg.Seed, 2000)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for i := 0; ; i++ {
		op, ok := gen.Next()
		if !ok {
			break
		}
		r1, s1 := p1.Rewrite(1, i, op)
		r2, s2 := p2.Rewrite(1, i, op)
		if s1 != s2 || r1 != r2 {
			t.Fatalf("rewrite diverged at op %d", i)
		}
		if s1 {
			shared++
			if r1.Addr < SharedBase {
				t.Fatalf("shared rewrite produced private address %#x", r1.Addr)
			}
		}
	}
	if shared == 0 {
		t.Fatal("plan never redirected an op to the shared region")
	}
}

// BenchmarkSystemStep measures multi-core stepping throughput for the
// scaling study.
func BenchmarkSystemStep(b *testing.B) {
	prof, err := workload.ByName("gromacs")
	if err != nil {
		b.Fatal(err)
	}
	for _, cores := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "cores1", 2: "cores2", 4: "cores4"}[cores], func(b *testing.B) {
			cfg := config.Default().WithCores(cores)
			for i := 0; i < b.N; i++ {
				if _, err := RunSystem(cfg, prof, 2000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
