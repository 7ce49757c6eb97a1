// Package secpb's root benchmark suite: one testing.B benchmark per
// table and figure of the paper's evaluation, plus micro-benchmarks of
// the core pipeline. Each table/figure benchmark regenerates its
// artifact on a reduced benchmark set per iteration and reports the
// headline number as a custom metric, so `go test -bench .` doubles as
// a smoke-run of the whole evaluation. Full-fidelity artifacts come
// from `go run ./cmd/secpb-bench -exp all -ops 200000`.
package secpb

import (
	"testing"

	"secpb/internal/addr"
	"secpb/internal/bmt"
	"secpb/internal/config"
	"secpb/internal/crypto"
	"secpb/internal/energy"
	"secpb/internal/engine"
	"secpb/internal/harness"
	"secpb/internal/meta"
	"secpb/internal/ptable"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// benchOpts uses a representative 3-benchmark subset so each iteration
// stays in benchmark-friendly time.
func benchOpts() harness.Options {
	o := harness.DefaultOptions()
	o.Ops = 20_000
	o.Benchmarks = []string{"gamess", "povray", "mcf"}
	return o
}

func BenchmarkTable4SchemeSlowdowns(b *testing.B) {
	o := benchOpts()
	var mean float64
	for i := 0; i < b.N; i++ {
		grid, _, err := harness.Table4(o)
		if err != nil {
			b.Fatal(err)
		}
		mean = grid.Mean[config.SchemeCOBCM]
	}
	b.ReportMetric((mean-1)*100, "cobcm-overhead-%")
}

func BenchmarkFigure6PerBenchmark(b *testing.B) {
	o := benchOpts()
	var gamessNoGap float64
	for i := 0; i < b.N; i++ {
		grid, _, err := harness.Figure6(o)
		if err != nil {
			b.Fatal(err)
		}
		gamessNoGap = grid.Ratio["gamess"][config.SchemeNoGap]
	}
	b.ReportMetric(gamessNoGap, "gamess-nogap-x")
}

func BenchmarkTable5BatteryEstimates(b *testing.B) {
	cfg := config.Default()
	var cobcm float64
	for i := 0; i < b.N; i++ {
		rows, _, err := harness.Table5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cobcm = rows[0].SuperCapMM3
	}
	b.ReportMetric(cobcm, "cobcm-supercap-mm3")
}

func BenchmarkTable6BatteryVsSize(b *testing.B) {
	cfg := config.Default()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Table6(cfg); err != nil {
			b.Fatal(err)
		}
	}
	j, _ := energy.SecPBEnergy(config.SchemeCOBCM, 512, 8)
	b.ReportMetric(energy.EstimateFor("", j).SuperCapMM3, "cobcm512-supercap-mm3")
}

func BenchmarkFigure7SizeSweep(b *testing.B) {
	o := benchOpts()
	o.Benchmarks = []string{"gobmk"}
	var r512 float64
	for i := 0; i < b.N; i++ {
		vals, _, err := harness.Figure7(o)
		if err != nil {
			b.Fatal(err)
		}
		r512 = vals[512]["gobmk"]
	}
	b.ReportMetric(r512, "gobmk-cm512-x")
}

func BenchmarkFigure8BMTRootUpdates(b *testing.B) {
	o := benchOpts()
	o.Benchmarks = []string{"povray"}
	var frac float64
	for i := 0; i < b.N; i++ {
		vals, _, err := harness.Figure8(o)
		if err != nil {
			b.Fatal(err)
		}
		frac = vals["povray"]["cm-32"]
	}
	b.ReportMetric(frac*100, "povray-rootupd-%")
}

func BenchmarkFigure9BMFHeightStudy(b *testing.B) {
	o := benchOpts()
	o.Benchmarks = []string{"povray"}
	var cmDBMF float64
	for i := 0; i < b.N; i++ {
		vals, _, err := harness.Figure9(o)
		if err != nil {
			b.Fatal(err)
		}
		cmDBMF = vals["povray"]["cm_dbmf"]
	}
	b.ReportMetric(cmDBMF, "povray-cmdbmf-x")
}

func BenchmarkStatsReport(b *testing.B) {
	o := benchOpts()
	o.Benchmarks = []string{"gamess"}
	for i := 0; i < b.N; i++ {
		if _, err := harness.StatsReport(o); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks: the simulator pipeline itself.

func benchEngine(b *testing.B, scheme config.Scheme) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.Default().WithScheme(scheme)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.RunBenchmark(cfg, prof, 10_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineBBB(b *testing.B)   { benchEngine(b, config.SchemeBBB) }
func BenchmarkEngineCOBCM(b *testing.B) { benchEngine(b, config.SchemeCOBCM) }
func BenchmarkEngineNoGap(b *testing.B) { benchEngine(b, config.SchemeNoGap) }
func BenchmarkEngineSP(b *testing.B)    { benchEngine(b, config.SchemeSP) }

// Hot-path micro-benchmarks: per-operation cost of the engine's store
// and load paths and of OTP generation, independent of workload mix.

func newBenchEngine(b *testing.B, scheme config.Scheme) *engine.Engine {
	b.Helper()
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.New(config.Default().WithScheme(scheme), prof, []byte("bench-key"))
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkEngineStore measures one store through the COBCM fast path:
// program-view update, SecPB acceptance with early tuple work, and the
// cycle accounting — the per-op cost every sweep pays most often.
func BenchmarkEngineStore(b *testing.B) {
	eng := newBenchEngine(b, config.SchemeCOBCM)
	const ws = 1 << 16 // 64 KiB write working set
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := trace.Op{Kind: trace.Store, Addr: uint64(i*8) % ws, Size: 8, Data: uint64(i), Gap: 3}
		if err := eng.Step(op); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineLoad measures one load (mixed L1/SecPB/PM hits) after
// priming the working set with stores.
func BenchmarkEngineLoad(b *testing.B) {
	eng := newBenchEngine(b, config.SchemeCOBCM)
	const ws = 1 << 16
	for i := 0; i < ws/8; i++ {
		op := trace.Op{Kind: trace.Store, Addr: uint64(i * 8), Size: 8, Data: uint64(i), Gap: 3}
		if err := eng.Step(op); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := trace.Op{Kind: trace.Load, Addr: uint64(i*328) % ws, Size: 8, Gap: 3}
		if err := eng.Step(op); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOTPGen measures one 64-byte one-time-pad generation (four AES
// block encryptions) — the crypto engine's hottest primitive, in the
// write-into form the store and drain paths use.
func BenchmarkOTPGen(b *testing.B) {
	e, err := crypto.NewEngine([]byte("bench-key"))
	if err != nil {
		b.Fatal(err)
	}
	var pad [crypto.CacheLineSize]byte
	b.ReportAllocs()
	b.ResetTimer()
	var sink byte
	for i := 0; i < b.N; i++ {
		e.OTPInto(&pad, uint64(i)<<6, uint64(i))
		sink ^= pad[0]
	}
	_ = sink
}

// Hash-layer micro-benchmarks: the keyed-midstate fast path against the
// hand-rolled reference, and per-walk vs batched BMT update cost.

func benchCryptoEngine(b *testing.B) *crypto.Engine {
	b.Helper()
	e, err := crypto.NewEngine([]byte("bench-key"))
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkMAC measures one block MAC on the fast path: a single SHA-512
// compression from the cached key midstate.
func BenchmarkMAC(b *testing.B) {
	e := benchCryptoEngine(b)
	var ct [crypto.CacheLineSize]byte
	b.SetBytes(crypto.CacheLineSize)
	b.ReportAllocs()
	b.ResetTimer()
	var sink byte
	for i := 0; i < b.N; i++ {
		tag := e.MAC(&ct, uint64(i)<<6, uint64(i))
		sink ^= tag[0]
	}
	_ = sink
}

// BenchmarkMACReference measures the same MAC on the hand-rolled
// reference implementation (the pre-overhaul cost).
func BenchmarkMACReference(b *testing.B) {
	e := benchCryptoEngine(b)
	var ct [crypto.CacheLineSize]byte
	b.SetBytes(crypto.CacheLineSize)
	b.ReportAllocs()
	b.ResetTimer()
	var sink byte
	for i := 0; i < b.N; i++ {
		tag := e.MACReference(&ct, uint64(i)<<6, uint64(i))
		sink ^= tag[0]
	}
	_ = sink
}

// BenchmarkHashNode measures one BMT interior-node hash (64 bytes of
// child digests) on the fast path.
func BenchmarkHashNode(b *testing.B) {
	e := benchCryptoEngine(b)
	children := make([]byte, 64)
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	var sink byte
	for i := 0; i < b.N; i++ {
		h := e.HashNode(children)
		sink ^= h[0]
	}
	_ = sink
}

// BenchmarkHashNodeReference measures the same node hash on the
// hand-rolled reference implementation.
func BenchmarkHashNodeReference(b *testing.B) {
	e := benchCryptoEngine(b)
	children := make([]byte, 64)
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	var sink byte
	for i := 0; i < b.N; i++ {
		h := e.HashNodeReference(children)
		sink ^= h[0]
	}
	_ = sink
}

// BenchmarkBMTUpdate measures one full physical leaf-to-root walk
// (Update immediately committed by Sweep) on a height-8 tree.
func BenchmarkBMTUpdate(b *testing.B) {
	e := benchCryptoEngine(b)
	tr, err := bmt.New(e, 8)
	if err != nil {
		b.Fatal(err)
	}
	line := make([]byte, meta.LineBytesLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Update(uint64(i%4096), line)
		tr.Sweep()
	}
}

// BenchmarkBMTBatchDrain measures a drain epoch: 512 update walks over a
// 256-page hot set committed with one coalesced sweep, the shape the
// controller's drain path produces. Compare walks/op × BenchmarkBMTUpdate
// against ns/op here for the coalescing win.
func BenchmarkBMTBatchDrain(b *testing.B) {
	e := benchCryptoEngine(b)
	tr, err := bmt.New(e, 8)
	if err != nil {
		b.Fatal(err)
	}
	const walks = 512
	line := make([]byte, meta.LineBytesLen)
	lineOf := func(uint64) []byte { return line }
	pages := make([]uint64, walks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range pages {
			pages[j] = uint64((i*walks + j*7) % 256)
		}
		tr.UpdateBatch(pages, lineOf)
	}
	b.ReportMetric(walks, "walks/op")
}

// BenchmarkTable4Grid measures the wall-clock of a reduced Table IV
// sweep — the experiment-level number the parallel runner targets.
func BenchmarkTable4Grid(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.Table4(o); err != nil {
			b.Fatal(err)
		}
	}
}

// Data-plane micro-benchmarks: the paged state table against the map it
// replaced, batched against scalar trace replay, and the memoized
// experiment sweep.

// BenchmarkPTableVsMap compares the paged direct-index table against a
// Go map over the engine's actual access shape: a dense block-index
// working set, ~1/8 inserts, 7/8 re-lookups.
func BenchmarkPTableVsMap(b *testing.B) {
	const ws = 1 << 14
	b.Run("ptable", func(b *testing.B) {
		t := ptable.New[[addr.BlockBytes]byte]()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blk, _ := t.GetOrCreate(uint64(i*7) % ws)
			blk[i&63] = byte(i)
		}
	})
	b.Run("map", func(b *testing.B) {
		m := make(map[uint64]*[addr.BlockBytes]byte)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(i*7) % ws
			blk, ok := m[k]
			if !ok {
				blk = new([addr.BlockBytes]byte)
				m[k] = blk
			}
			blk[i&63] = byte(i)
		}
	})
}

// BenchmarkRunBatchVsRun compares streaming replay with replay of a
// pre-materialized trace: "batched" generates the stream inside the
// timed loop through the generator's NextBatch, "batched-pre" replays
// the same ops from a resettable SliceBatchSource, so the difference is
// generator cost. (The name predates the removal of the per-op Run path,
// whose "scalar" case went with it.) The workload is replay-bound by
// design: povray's small hot working set keeps the stream in the
// modeled caches, so the comparison is not drowned by the miss and
// crypto simulation work that dominates miss-bound or MAC-bound
// profiles.
func BenchmarkRunBatchVsRun(b *testing.B) {
	prof, err := workload.ByName("povray")
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.Default().WithScheme(config.SchemeCOBCM)
	const nops = 50_000
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gen, err := workload.NewGenerator(prof, cfg.Seed, nops)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := engine.New(cfg, prof, []byte("bench-key"))
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.RunBatch(gen); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batched-pre", func(b *testing.B) {
		ops, err := workload.Generate(prof, cfg.Seed, nops)
		if err != nil {
			b.Fatal(err)
		}
		src := trace.NewSliceBatchSource(ops)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng, err := engine.New(cfg, prof, []byte("bench-key"))
			if err != nil {
				b.Fatal(err)
			}
			src.Reset()
			if err := eng.RunBatch(src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExpAllMemoized measures the overlapping Table IV + Figure 6
// + Figure 7 sweep with and without the cell cache: the grids share
// most of their cells, so the memoized run simulates each unique cell
// once and replays the rest.
func BenchmarkExpAllMemoized(b *testing.B) {
	sweep := func(b *testing.B, o harness.Options) {
		if _, _, err := harness.Table4(o); err != nil {
			b.Fatal(err)
		}
		if _, _, err := harness.Figure6(o); err != nil {
			b.Fatal(err)
		}
		if _, _, err := harness.Figure7(o); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("memo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := benchOpts()
			o.Memo = harness.NewCellMemo()
			sweep(b, o)
		}
	})
	b.Run("nomemo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(b, benchOpts())
		}
	})
}
