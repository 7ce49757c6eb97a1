package engine

import (
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runOps(t *testing.T, cfg config.Config, prof workload.Profile, ops []trace.Op) *Engine {
	t.Helper()
	e, err := New(cfg, prof, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunBatch(trace.NewSliceBatchSource(ops)); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFunctionalStoreLoadRoundTrip(t *testing.T) {
	for _, scheme := range config.AllSchemes() {
		cfg := config.Default().WithScheme(scheme)
		prof := mustProfile(t, "gcc")
		ops := []trace.Op{
			{Kind: trace.Store, Addr: 0x10000000, Size: 8, Data: 0xDEADBEEF, Gap: 1},
			{Kind: trace.Store, Addr: 0x10000008, Size: 4, Data: 0x1234, Gap: 1},
			{Kind: trace.Load, Addr: 0x10000000, Size: 8, Gap: 1},
		}
		e := runOps(t, cfg, prof, ops)
		block := addr.BlockOf(0x10000000)
		mem := e.Memory()[block]
		if mem[0] != 0xEF || mem[3] != 0xDE || mem[8] != 0x34 {
			t.Errorf("%v: program view wrong: % x", scheme, mem[:12])
		}
		res := e.Collect()
		if res.Stores != 2 || res.Loads != 1 {
			t.Errorf("%v: op counts %d/%d", scheme, res.Stores, res.Loads)
		}
	}
}

func TestSchemeOrderingOnEagerWorkload(t *testing.T) {
	// The fundamental result (Table IV): cycle counts must be ordered
	// BBB <= COBCM <= OBCM <= BCM <= CM <= M <= NoGap on a store-heavy
	// workload.
	prof := mustProfile(t, "gamess")
	order := []config.Scheme{
		config.SchemeBBB, config.SchemeCOBCM, config.SchemeOBCM,
		config.SchemeBCM, config.SchemeCM, config.SchemeM, config.SchemeNoGap,
	}
	var prev uint64
	for i, scheme := range order {
		res, err := RunBenchmark(config.Default().WithScheme(scheme), prof, 20000)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Cycles < prev {
			t.Errorf("%v is faster than its eager predecessor: %d < %d", scheme, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

func TestDeterminism(t *testing.T) {
	cfg := config.Default().WithScheme(config.SchemeCM)
	prof := mustProfile(t, "povray")
	a, err := RunBenchmark(cfg, prof, 10000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBenchmark(cfg, prof, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.PMWrites != b.PMWrites {
		t.Errorf("non-deterministic: %d/%d vs %d/%d", a.Cycles, a.PMWrites, b.Cycles, b.PMWrites)
	}
}

func TestPersistedStateVerifiesAfterRun(t *testing.T) {
	// After a healthy run plus a full crash drain, every persisted
	// block must decrypt to the program view and pass verification.
	for _, scheme := range config.SecPBSchemes() {
		cfg := config.Default().WithScheme(scheme)
		prof := mustProfile(t, "povray")
		e, err := New(cfg, prof, []byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		gen, _ := workload.NewGenerator(prof, 42, 5000)
		if err := e.RunBatch(gen); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if _, _, err := e.SecPB().CrashDrain(); err != nil {
			t.Fatalf("%v: crash drain: %v", scheme, err)
		}
		mc := e.Controller()
		checked := 0
		for block, want := range e.Memory() {
			got, _, err := mc.FetchBlock(block)
			if err != nil {
				t.Fatalf("%v: block %#x failed verification: %v", scheme, block.Addr(), err)
			}
			if got != want {
				t.Fatalf("%v: block %#x plaintext mismatch", scheme, block.Addr())
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("%v: no blocks persisted", scheme)
		}
	}
}

func TestSPBaselinePersistsPerStore(t *testing.T) {
	cfg := config.Default().WithScheme(config.SchemeSP)
	prof := mustProfile(t, "gcc")
	res, err := RunBenchmark(cfg, prof, 5000)
	if err != nil {
		t.Fatal(err)
	}
	// Write-through: one BMT root update per store (sec_wt in Fig 8).
	if res.BMTRootUpdates < res.Stores {
		t.Errorf("SP root updates %d < stores %d", res.BMTRootUpdates, res.Stores)
	}
	if res.EntriesAllocated != 0 {
		t.Error("SP baseline should have no SecPB")
	}
}

func TestCoalescingReducesRootUpdates(t *testing.T) {
	// Fig 8's premise: SecPB schemes update the root once per entry,
	// far less than once per store when locality exists.
	prof := mustProfile(t, "povray") // NWPE ~17
	res, err := RunBenchmark(config.Default().WithScheme(config.SchemeCM), prof, 30000)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.BMTRootUpdates) / float64(res.Stores)
	if frac > 0.5 {
		t.Errorf("root updates fraction %.2f, want well below 1 (coalescing)", frac)
	}
	if res.NWPE < 4 {
		t.Errorf("povray NWPE = %.1f, expected strong coalescing", res.NWPE)
	}
}

func TestLoadsServedFromSecPB(t *testing.T) {
	cfg := config.Default()
	prof := mustProfile(t, "povray")
	res, err := RunBenchmark(cfg, prof, 20000)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Direct check: store then load with L1 pressure in between.
	ops := []trace.Op{{Kind: trace.Store, Addr: 0x10000000, Size: 8, Data: 7, Gap: 0}}
	// Evict the stored block from L1 (same set, 8 ways + extra), then
	// load it back: the SecPB (32 entries) still holds it.
	for i := uint64(1); i <= 9; i++ {
		ops = append(ops, trace.Op{Kind: trace.Load, Addr: 0x10000000 + i*8192, Size: 8, Gap: 0})
	}
	ops = append(ops, trace.Op{Kind: trace.Load, Addr: 0x10000000, Size: 8, Gap: 0})
	e := runOps(t, cfg, prof, ops)
	if e.Collect().PBServedLoads == 0 {
		t.Error("no loads served from SecPB despite L1 eviction")
	}
}

func TestFenceDrainsStoreBuffer(t *testing.T) {
	cfg := config.Default().WithScheme(config.SchemeNoGap) // slow acceptance
	prof := mustProfile(t, "gcc")
	ops := []trace.Op{
		{Kind: trace.Store, Addr: 0x10000000, Size: 8, Data: 1, Gap: 0},
		{Kind: trace.Fence},
	}
	e := runOps(t, cfg, prof, ops)
	// After the fence, now must cover the store's acceptance (>= MAC+BMT
	// latency ~360 cycles).
	if e.Now() < 300 {
		t.Errorf("fence did not wait for acceptance: now = %d", e.Now())
	}
}

func TestBackpressureOnTinySecPB(t *testing.T) {
	cfg := config.Default().WithScheme(config.SchemeCOBCM).WithSecPBEntries(4)
	prof := mustProfile(t, "gamess")
	res, err := RunBenchmark(cfg, prof, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backpressure == 0 {
		t.Error("4-entry SecPB under gamess produced no backpressure")
	}
}

func TestStatisticsSanity(t *testing.T) {
	res, err := RunBenchmark(config.Default(), mustProfile(t, "gamess"), 50000)
	if err != nil {
		t.Fatal(err)
	}
	if res.PPTI < 40 || res.PPTI > 55 {
		t.Errorf("gamess PPTI = %.1f, want ~47.4", res.PPTI)
	}
	if res.IPC <= 0 || res.IPC > 4 {
		t.Errorf("IPC = %.2f out of sane range", res.IPC)
	}
	if res.L1Hit <= 0 || res.L1Hit > 1 {
		t.Errorf("L1 hit rate = %v", res.L1Hit)
	}
	if res.BMTRootUpdates == 0 {
		t.Error("no BMT root updates recorded")
	}
}

func TestRejectsInvalidConfig(t *testing.T) {
	cfg := config.Default()
	cfg.SecPBEntries = 0
	if _, err := New(cfg, mustProfile(t, "gcc"), []byte("k")); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRejectsInvalidOp(t *testing.T) {
	e, err := New(config.Default(), mustProfile(t, "gcc"), []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(trace.Op{Kind: trace.Store, Size: 0}); err == nil {
		t.Error("invalid op accepted")
	}
}

func BenchmarkEngineCOBCM(b *testing.B) {
	cfg := config.Default()
	prof, _ := workload.ByName("gcc")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunBenchmark(cfg, prof, 5000); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGapWindowMeasured(t *testing.T) {
	// The battery-exposure window (Fig 3's draining + sec-sync gaps)
	// must be measured for any scheme that drains entries, and must be
	// bounded: an entry cannot complete its drain before it was
	// allocated, and windows should be finite under steady state.
	res, err := RunBenchmark(config.Default().WithScheme(config.SchemeCOBCM), mustProfile(t, "povray"), 30000)
	if err != nil {
		t.Fatal(err)
	}
	if res.GapMean <= 0 {
		t.Fatal("no gap samples recorded despite drains")
	}
	if res.GapP99 < uint64(res.GapMean) {
		t.Errorf("P99 %d below mean %.0f", res.GapP99, res.GapMean)
	}
}

func TestGapWindowGrowsWithBufferSize(t *testing.T) {
	// A larger SecPB holds entries longer before the watermark drains
	// them: the battery-exposure window must grow with capacity (the
	// energy-cost side of the size trade-off, Table VI).
	prof := mustProfile(t, "gcc")
	small, err := RunBenchmark(config.Default().WithSecPBEntries(8), prof, 30000)
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunBenchmark(config.Default().WithSecPBEntries(128), prof, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if large.GapMean <= small.GapMean {
		t.Errorf("gap mean did not grow with capacity: 8-entry %.0f vs 128-entry %.0f",
			small.GapMean, large.GapMean)
	}
}
