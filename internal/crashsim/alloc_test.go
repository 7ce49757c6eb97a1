// Race-detector instrumentation itself allocates, so this pin only
// holds on uninstrumented builds; ci.sh runs it in the dedicated
// non-race allocation pass.
//go:build !race

package crashsim

import (
	"fmt"
	"runtime"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/workload"
)

// TestCaptureSteadyStateAlloc pins snapshot recycling: after a cell's
// first crash point, capturing the next one copies into the stores the
// previous handler returned, so the bytes allocated between one
// handler's return and the next handler's entry — the capture plus the
// simulated ops in between — must average below one ptable page
// (32 KiB). A deep-copying capture allocates several pages per point.
// The handler runs the standard recovery, so every capture after the
// first copies into a destination recovery has dirtied.
func TestCaptureSteadyStateAlloc(t *testing.T) {
	const pageBytes = 32 << 10
	for _, wl := range []string{"gcc", "kvstore"} {
		t.Run(wl, func(t *testing.T) {
			prof, err := workload.ByName(wl)
			if err != nil {
				t.Fatal(err)
			}
			cfg := config.Default().WithScheme(config.SchemeCOBCM)
			cfg.Seed = 41
			ops, err := workload.Generate(prof, cfg.Seed, 2000)
			if err != nil {
				t.Fatal(err)
			}
			var ms runtime.MemStats
			var left, between uint64
			points := 0
			_, err = InjectTraceWith(cfg, prof, []byte("capture-alloc-key"), ops,
				TraceOptions{Points: 60, Seed: 7},
				func(snap *Snapshot, golden map[addr.Block][addr.BlockBytes]byte) error {
					runtime.ReadMemStats(&ms)
					if points > 0 {
						between += ms.TotalAlloc - left
					}
					points++
					res, err := snap.RecoverVerify(golden)
					if err != nil {
						return err
					}
					if res.Failures > 0 {
						t.Errorf("point %d: %s", snap.PointIndex, res.FirstBad)
					}
					runtime.ReadMemStats(&ms)
					left = ms.TotalAlloc
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if points < 10 {
				t.Fatalf("only %d crash points injected", points)
			}
			perCapture := between / uint64(points-1)
			t.Logf("%s: %d B allocated per capture over %d points", wl, perCapture, points-1)
			if perCapture >= pageBytes {
				t.Errorf("%d B allocated per capture at steady state, want < %d", perCapture, pageBytes)
			}
		})
	}
}

// TestRecoverVerifySteadyStateAlloc pins the recycled recovery state:
// after a cell's first crash point, RecoverVerify reboots the
// snapshot's controller in place (Reboot), drains the journal the
// capture filled, and replays the audit into a reset tree, with the
// verify block lists in recycled buffers, so the bytes allocated inside
// RecoverVerify must average
// below 8 KiB per point. Most points allocate nothing; what remains is
// the table pages a recovery drain is first to touch, which later
// captures then reuse. Building a fresh controller and replay tree per
// point allocates about 250 KB.
func TestRecoverVerifySteadyStateAlloc(t *testing.T) {
	const budget = 8 << 10
	for _, wl := range []string{"gcc", "kvstore"} {
		t.Run(wl, func(t *testing.T) {
			prof, err := workload.ByName(wl)
			if err != nil {
				t.Fatal(err)
			}
			cfg := config.Default().WithScheme(config.SchemeCOBCM)
			cfg.Seed = 41
			ops, err := workload.Generate(prof, cfg.Seed, 2000)
			if err != nil {
				t.Fatal(err)
			}
			var ms runtime.MemStats
			var inside uint64
			points := 0
			_, err = InjectTraceWith(cfg, prof, []byte("recover-alloc-key"), ops,
				TraceOptions{Points: 60, Seed: 7},
				func(snap *Snapshot, golden map[addr.Block][addr.BlockBytes]byte) error {
					runtime.ReadMemStats(&ms)
					before := ms.TotalAlloc
					res, err := snap.RecoverVerify(golden)
					runtime.ReadMemStats(&ms)
					if points > 0 {
						inside += ms.TotalAlloc - before
					}
					points++
					if err != nil {
						return err
					}
					if res.Failures > 0 {
						t.Errorf("point %d: %s", snap.PointIndex, res.FirstBad)
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if points < 10 {
				t.Fatalf("only %d crash points injected", points)
			}
			perPoint := inside / uint64(points-1)
			t.Logf("%s: %d B allocated per RecoverVerify over %d points", wl, perPoint, points-1)
			if perPoint >= budget {
				t.Errorf("%d B allocated per RecoverVerify at steady state, want < %d", perPoint, budget)
			}
		})
	}
}

// TestSystemRecoverVerifySteadyStateAlloc is TestRecoverVerifySteadyStateAlloc
// for a whole socket: each shard of a SystemSnapshot is a Snapshot whose
// controller reboots in place, and every buffer's entries drain from
// the one journal they were captured into (the cross-core
// recovery.SystemJournal is a recycled cursor over those journals and
// copies none), so after a cell's first crash point the bytes
// allocated inside SystemSnapshot.RecoverVerify must stay under 16 KiB
// per point per core. What remains is mostly the table pages a drain is
// first to touch: about 5 KB at 1 core, 10 KB at 2 and 42 KB at 4.
// Copying every buffer's entries into the cross-core journal and again
// into a per-part journal allocates 14, 38 and 89 KB; restoring fresh
// controllers per shard per point allocates 0.4, 0.9 and 1.5 MB.
func TestSystemRecoverVerifySteadyStateAlloc(t *testing.T) {
	const budgetPerCore = 16 << 10
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			cfg := config.Default().WithScheme(config.SchemeCOBCM).WithCores(cores)
			cfg.Seed = 41
			perCore, err := SystemTrace(cfg, prof, 2000)
			if err != nil {
				t.Fatal(err)
			}
			var ms runtime.MemStats
			var inside uint64
			points := 0
			_, err = InjectSystemTraceWith(cfg, prof, []byte("recover-alloc-key"), perCore,
				TraceOptions{Points: 60, Seed: 7},
				func(snap *SystemSnapshot, golden *SystemGolden) error {
					runtime.ReadMemStats(&ms)
					before := ms.TotalAlloc
					res, err := snap.RecoverVerify(golden)
					runtime.ReadMemStats(&ms)
					if points > 0 {
						inside += ms.TotalAlloc - before
					}
					points++
					if err != nil {
						return err
					}
					if res.Failures > 0 {
						t.Errorf("point %d: %s", snap.PointIndex, res.FirstBad)
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if points < 10 {
				t.Fatalf("only %d crash points injected", points)
			}
			perPoint := inside / uint64(points-1)
			t.Logf("cores=%d: %d B allocated per RecoverVerify over %d points", cores, perPoint, points-1)
			if budget := uint64(budgetPerCore * cores); perPoint >= budget {
				t.Errorf("%d B allocated per RecoverVerify at steady state, want < %d", perPoint, budget)
			}
		})
	}
}

// TestCrashCellSteadyStateAlloc pins the recycled rig: once a worker has
// run a cell, a later InjectTraceWith cell resets the rig's engine,
// snapshot stores and recovery state in place, so the whole cell — both
// passes, every capture and every recovery — must allocate under
// 128 KiB. Building an engine per pass, a controller and a hash memo
// per cell, and touching every table page anew allocates 4–6 MB. The
// warm cell follows a cell of the other workload and scheme, so the
// reset crosses a change of scheme, seed and address footprint. The
// minimum over a few warm cells is taken: sync.Pool keeps a rig per
// processor, and a goroutine that migrates between cells may find
// none.
func TestCrashCellSteadyStateAlloc(t *testing.T) {
	const budget = 128 << 10
	type cellSpec struct {
		scheme config.Scheme
		wl     string
	}
	run := func(c cellSpec) uint64 {
		t.Helper()
		prof, err := workload.ByName(c.wl)
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.Default().WithScheme(c.scheme)
		cfg.Seed = 41
		ops, err := workload.Generate(prof, cfg.Seed, 2000)
		if err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		cell, err := InjectTraceWith(cfg, prof, []byte("crash-cell-alloc-key"), ops,
			TraceOptions{Points: 120, Seed: 7}, nil)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		if cell.Failures > 0 || cell.Injected != 120 {
			t.Fatalf("%s/%s: %d injected, %d failures: %s", c.scheme, c.wl, cell.Injected, cell.Failures, cell.FirstBad)
		}
		return ms.TotalAlloc - before
	}
	for _, c := range []cellSpec{{config.SchemeCOBCM, "gcc"}, {config.SchemeNoGap, "kvstore"}} {
		t.Run(c.scheme.String()+"/"+c.wl, func(t *testing.T) {
			other := cellSpec{config.SchemeNoGap, "kvstore"}
			if c.wl == "kvstore" {
				other = cellSpec{config.SchemeCOBCM, "gcc"}
			}
			run(c)
			run(other)
			warm := uint64(1 << 63)
			for i := 0; i < 3; i++ {
				warm = min(warm, run(c))
				run(other)
			}
			t.Logf("%s/%s: %d B allocated per warm cell", c.scheme, c.wl, warm)
			if warm >= budget {
				t.Errorf("%d B allocated per warm cell, want < %d", warm, budget)
			}
		})
	}
}
