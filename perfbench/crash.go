package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/crashsim"
	"secpb/internal/engine"
	"secpb/internal/runner"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

const (
	crashOps    = 2000 // trace length of every crash cell
	crashPoints = 120  // crash points sampled per cell
)

var crashWorkloads = []string{"gcc", "kvstore"}

// crashCell is one scheme x workload cell with its pre-generated trace.
type crashCell struct {
	cfg  config.Config
	prof workload.Profile
	ops  []trace.Op
	topt crashsim.TraceOptions
}

// crashOut is one cell's outcome as the benchmark's handler saw it.
type crashOut struct {
	cell         crashsim.CellResult
	span         time.Duration
	verify       time.Duration
	points       int
	drained      int
	checked      int
	failedPoints int
	err          error
	requestedPts int
}

func crashSetup(seed uint64) ([]crashCell, error) {
	var cells []crashCell
	for _, s := range config.SecPBSchemes() {
		for _, wl := range crashWorkloads {
			prof, err := workload.ByName(wl)
			if err != nil {
				return nil, err
			}
			cs := mix(seed, s.String()+"/"+wl)
			cfg := config.Default().WithScheme(s)
			cfg.Seed = cs
			ops, err := workload.Generate(prof, cs, crashOps)
			if err != nil {
				return nil, err
			}
			cells = append(cells, crashCell{cfg: cfg, prof: prof, ops: ops,
				topt: crashsim.TraceOptions{Points: crashPoints, Seed: cs ^ 0xC0FFEE}})
		}
	}
	return cells, nil
}

// runCrashCell injects the cell's sampled crash points with a
// benchmark-owned handler that recovers and verifies each snapshot.
func runCrashCell(c crashCell, traced bool) crashOut {
	var out crashOut
	var mu sync.Mutex
	h := func(snap *crashsim.Snapshot, golden map[addr.Block][addr.BlockBytes]byte) error {
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		res, err := snap.RecoverVerify(golden)
		mu.Lock()
		defer mu.Unlock()
		if traced {
			out.verify += time.Since(t0)
		}
		if err != nil {
			return err
		}
		out.points++
		out.drained += res.EntriesDrained
		out.checked += res.BlocksChecked
		if res.Failures > 0 {
			out.failedPoints++
		}
		return nil
	}
	t0 := time.Now()
	out.cell, out.err = crashsim.InjectTraceWith(c.cfg, c.prof, engine.ExperimentKey, c.ops, c.topt, h)
	out.span = time.Since(t0)
	out.requestedPts = c.topt.Points
	if t := int(out.cell.TotalPoints); t < out.requestedPts {
		out.requestedPts = t
	}
	return out
}

type crashRound struct {
	wall time.Duration
	outs []crashOut
}

func runCrashRound(cells []crashCell, workers int, traced bool) (crashRound, error) {
	t0 := time.Now()
	outs, err := runner.Map(context.Background(), workers, cells,
		func(_ context.Context, _ int, c crashCell) (crashOut, error) {
			return runCrashCell(c, traced), nil
		})
	return crashRound{wall: time.Since(t0), outs: outs}, err
}

// account adds the round to the attempted/failed counts and checks it:
// no failed point, and exactly the requested number of points injected.
func (r crashRound) account(rep *report) (points int, ok bool) {
	ok = true
	for _, o := range r.outs {
		rep.attempted += o.requestedPts
		if o.err != nil {
			rep.failed += o.requestedPts - o.points
			ok = false
		}
		rep.failed += o.failedPoints
		if o.failedPoints > 0 || o.cell.Injected != o.requestedPts || o.points != o.requestedPts {
			ok = false
		}
		points += o.points
	}
	return points, ok
}

func runCrashMatrix(c *runCtx, rep *report) error {
	var cells []crashCell
	setup, err := rep.setups(setupRepeats, func() error {
		var err error
		cells, err = crashSetup(c.seed)
		return err
	})
	if err != nil {
		return err
	}
	rep.addE2E(setup.timing("setup_s", "s"))

	if c.traced {
		return traceCrashMatrix(c, rep, cells)
	}
	points, rounds := 0, 0
	allOK := true
	end := c.deadline(1)
	var rates, mops, walls samples
	for rounds == 0 || time.Now().Before(end) {
		var r crashRound
		var err error
		rep.unit(func() { r, err = runCrashRound(cells, c.workers, false) })
		if err != nil {
			return err
		}
		n, ok := r.account(rep)
		rates = append(rates, float64(n)/r.wall.Seconds())
		mops = append(mops, float64(len(cells)*crashOps)/r.wall.Seconds()/1e6)
		walls = append(walls, ms(r.wall))
		allOK = allOK && ok
		points += n
		rounds++
	}
	rep.expect("crash-matrix: zero failures and injected == requested in every cell", allOK)
	rep.addE2E(mops.timing("sim_mops", "Mop/s"))
	rep.addE2E(walls.timing("latency_ms", "ms"))
	rep.addInfo(rates.timing("crash_points_per_s", "1/s"))
	rep.linef("crash-matrix points/s per round: %s", fmtSamples(rates))
	rep.linef("crash-matrix rounds=%d cells=%d points/round=%d", rounds, len(cells), points/rounds)
	return nil
}

func traceCrashMatrix(c *runCtx, rep *report, cells []crashCell) error {
	plain, err := runCrashRound(cells, c.workers, false)
	if err != nil {
		return err
	}
	traced, err := runCrashRound(cells, c.workers, true)
	if err != nil {
		return err
	}
	_, ok1 := plain.account(rep)
	points, ok2 := traced.account(rep)
	rep.expect("crash-matrix: zero failures and injected == requested in every cell", ok1 && ok2)
	var span, verify time.Duration
	var drained, checked int
	var total uint64
	for _, o := range traced.outs {
		span += o.span
		verify += o.verify
		drained += o.drained
		checked += o.checked
		total += o.cell.TotalPoints
	}
	var plainSpans time.Duration
	for _, o := range plain.outs {
		plainSpans += o.span
	}
	capacity := plain.wall.Seconds() * float64(c.workers)
	rep.linef("tracing overhead crash-matrix %+.4f s (traced %.4f s, untraced %.4f s)",
		(traced.wall - plain.wall).Seconds(), traced.wall.Seconds(), plain.wall.Seconds())
	rep.linef("residual crash-matrix %.4f s of %.4f worker-s (untraced wall x workers minus cell spans)",
		capacity-plainSpans.Seconds(), capacity)
	if points == 0 {
		return fmt.Errorf("crash-matrix: traced round injected no points")
	}
	if err := probeCrashLayers(c, rep, cells); err != nil {
		return err
	}
	p := float64(points)
	rep.addInfo(metric{Name: "recovery.verify_ns_per_point", Value: float64(verify.Nanoseconds()) / p, Unit: "ns"})
	rep.addInfo(metric{Name: "crashsim.self_ns_per_point", Value: float64((span - verify).Nanoseconds()) / p, Unit: "ns"})
	rep.addInfo(metric{Name: "crashsim.points_total", Value: float64(total), Unit: "count"})
	rep.addInfo(metric{Name: "recovery.entries_drained_per_point", Value: float64(drained) / p, Unit: "count"})
	rep.addInfo(metric{Name: "recovery.blocks_checked_per_point", Value: float64(checked) / p, Unit: "count"})
	return nil
}

// probeCrashLayers regenerates every cell's trace and runs it through
// the engine with a crash sink that captures nothing: the generator's
// and the engine's share of a crash cell, and the cell's counters.
func probeCrashLayers(c *runCtx, rep *report, cells []crashCell) error {
	var t simTotals
	for _, cell := range cells {
		t0 := time.Now()
		ops, err := workload.Generate(cell.prof, cell.cfg.Seed, crashOps)
		if err != nil {
			return err
		}
		t.addGen(time.Since(t0), len(ops))
		_, res, err := timedEngineRun(&t, cell.cfg, cell.prof, nopSink{}, ops)
		if err != nil {
			return err
		}
		t.add(res)
	}
	t.report(rep)
	return nil
}
