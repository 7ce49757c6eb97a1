package main

import (
	"fmt"
	"sync"
	"time"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/harness"
	"secpb/internal/workload"
)

// sweepOps is the simulated op count of every paper-sweep cell.
const sweepOps = 30_000

// sweepDigestDefault is the digest of one paper-sweep round at
// defaultSeed and sweepOps. A change that alters any named statistic of
// any cell changes it; a perf-only change must not.
const sweepDigestDefault = "59e21202552dc130"

// Cache-resident and drain-bound SPEC proxies: the first group runs
// almost entirely in the cache model and the specialised kernels, the
// second spends its time draining persist-buffer entries through
// counter, OTP, MAC and BMT work.
var (
	hotProfiles   = []string{"povray", "gromacs", "hmmer", "namd"}
	drainProfiles = []string{"gamess", "bwaves", "leslie3d", "milc"}
)

// cellRecorder is a benchmark-owned backing store for the harness cell
// memo. The memo consults Load just before it simulates a cell and
// calls Save with the result right after, on the same goroutine, so the
// pair brackets the cell's span without touching harness code. Load
// always misses, so every unique cell is simulated.
type cellRecorder struct {
	traced bool
	mu     sync.Mutex
	starts map[harness.CellKey]time.Time
	cells  []cellRec
}

type cellRec struct {
	res  engine.Result
	span time.Duration
}

func newCellRecorder(traced bool) *cellRecorder {
	return &cellRecorder{traced: traced, starts: map[harness.CellKey]time.Time{}}
}

func (r *cellRecorder) Load(k harness.CellKey) (engine.Result, bool) {
	if r.traced {
		r.mu.Lock()
		r.starts[k] = time.Now()
		r.mu.Unlock()
	}
	return engine.Result{}, false
}

func (r *cellRecorder) Save(k harness.CellKey, v engine.Result) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	var span time.Duration
	if r.traced {
		span = now.Sub(r.starts[k])
		delete(r.starts, k)
	}
	r.cells = append(r.cells, cellRec{res: v, span: span})
}

// resultLine is the canonical text of a cell's named statistics. Only
// these fields enter the digest, so adding a Result field later does
// not change it.
func resultLine(r engine.Result) string {
	return fmt.Sprintf("%s|%s|cycles=%d|instrs=%d|pmr=%d|pmw=%d|bmt=%d|entries=%d|peak=%d",
		r.Benchmark, r.Scheme, r.Cycles, r.Instructions, r.PMReads, r.PMWrites,
		r.BMTRootUpdates, r.EntriesAllocated, r.PeakOccupancy)
}

func resultsDigest(rs []engine.Result) string {
	lines := make([]string, len(rs))
	for i, r := range rs {
		lines[i] = resultLine(r)
	}
	return digest(lines)
}

type sweepRound struct {
	wall         time.Duration
	cells        []cellRec
	hits, misses uint64
	err          error
}

// runSweepRound regenerates Table IV, Figure 6 and Figure 7 over all 18
// SPEC proxies with one fresh shared memo.
func runSweepRound(seed uint64, workers int, traced bool) sweepRound {
	rec := newCellRecorder(traced)
	memo := harness.NewCellMemo()
	memo.SetStore(rec)
	cfg := config.Default()
	cfg.Seed = seed
	o := harness.Options{Ops: sweepOps, Cfg: cfg, Parallelism: workers, Memo: memo}
	t0 := time.Now()
	_, _, err := harness.Table4(o)
	if err == nil {
		_, _, err = harness.Figure6(o)
	}
	if err == nil {
		_, _, err = harness.Figure7(o)
	}
	out := sweepRound{wall: time.Since(t0), err: err}
	out.hits, out.misses = memo.Stats()
	out.cells = rec.cells
	return out
}

func (s sweepRound) results() []engine.Result {
	rs := make([]engine.Result, len(s.cells))
	for i, c := range s.cells {
		rs[i] = c.res
	}
	return rs
}

// sweepSetup runs a short warm-up cell under every scheme the grids
// use, so lazily built tables and code pages are in place before
// timing. The grids generate their inputs live, so there is nothing
// else to build.
func sweepSetup(seed uint64) error {
	prof, err := workload.ByName("gcc")
	if err != nil {
		return err
	}
	for _, s := range append([]config.Scheme{config.SchemeBBB}, config.SecPBSchemes()...) {
		cfg := config.Default().WithScheme(s)
		cfg.Seed = seed
		if _, err := engine.RunBenchmark(cfg, prof, 5_000); err != nil {
			return err
		}
	}
	return nil
}

func runPaperSweep(c *runCtx, rep *report) error {
	setup, err := rep.setups(setupRepeats, func() error { return sweepSetup(c.seed) })
	if err != nil {
		return err
	}
	rep.addE2E(setup.timing("setup_s", "s"))

	if c.traced {
		return tracePaperSweep(c, rep)
	}
	var rounds []sweepRound
	end := c.deadline(1)
	for len(rounds) == 0 || time.Now().Before(end) {
		rep.unit(func() { rounds = append(rounds, runSweepRound(c.seed, c.workers, false)) })
	}
	var rates, walls samples
	for _, r := range rounds {
		rep.attempted += int(r.misses)
		if r.err != nil {
			rep.failed++
			continue
		}
		rates = append(rates, float64(len(r.cells))*sweepOps/r.wall.Seconds()/1e6)
		walls = append(walls, ms(r.wall))
	}
	rep.linef("paper-sweep Mop/s per round: %s", fmtSamples(rates))
	rep.addE2E(rates.timing("sim_mops", "Mop/s"))
	rep.addE2E(walls.timing("latency_ms", "ms"))
	rep.linef("paper-sweep rounds=%d cells/round=%d memo hits/round=%d", len(rounds), len(rounds[0].cells), rounds[0].hits)
	checkSweepDigests(c, rep, rounds)
	return nil
}

// checkSweepDigests checks every round against the recorded digest (or,
// for another seed, against the first round) and runs the negative
// control: one field of one cell perturbed must fail the check.
func checkSweepDigests(c *runCtx, rep *report, rounds []sweepRound) {
	first := resultsDigest(rounds[0].results())
	want := first
	if c.seed == defaultSeed {
		want = sweepDigestDefault
	}
	rep.linef("paper-sweep digest %s (seed %d)", first, c.seed)
	ok := true
	for _, r := range rounds {
		if r.err != nil || resultsDigest(r.results()) != want {
			ok = false
		}
	}
	rep.expect("paper-sweep cell digest matches", ok)
	for _, r := range rounds {
		for _, cell := range r.cells {
			if cell.res.IntegrityErr != nil {
				rep.failed++
			}
		}
	}
	perturbed := rounds[0].results()
	perturbed[len(perturbed)/2].PMWrites++
	rep.control("paper-sweep digest with one PMWrites perturbed", resultsDigest(perturbed) == want)
}

// tracePaperSweep runs one untraced and one traced round (for the
// tracing overhead and the harness residual) and then a direct probe of
// the hot and drain-bound cells that times workload generation and the
// engine separately and reads the per-layer counters.
func tracePaperSweep(c *runCtx, rep *report) error {
	plain := runSweepRound(c.seed, c.workers, false)
	traced := runSweepRound(c.seed, c.workers, true)
	for _, r := range []sweepRound{plain, traced} {
		rep.attempted += int(r.misses)
		if r.err != nil {
			return r.err
		}
	}
	checkSweepDigests(c, rep, []sweepRound{plain, traced})
	var spans time.Duration
	for _, cell := range traced.cells {
		spans += cell.span
	}
	capacity := plain.wall.Seconds() * float64(c.workers)
	residual := (capacity - spans.Seconds()) / capacity
	rep.linef("tracing overhead paper-sweep %+.4f s (traced %.4f s, untraced %.4f s)",
		(traced.wall - plain.wall).Seconds(), traced.wall.Seconds(), plain.wall.Seconds())
	rep.linef("residual paper-sweep %.4f s of %.4f worker-s (untraced wall x workers minus cell spans)",
		capacity-spans.Seconds(), capacity)
	rep.addInfo(metric{Name: "harness.memo_hit_ratio", Value: float64(traced.hits) / float64(traced.hits+traced.misses), Unit: "ratio"})
	rep.addInfo(metric{Name: "harness.residual_frac", Value: residual, Unit: "ratio"})
	return probeLayers(c, rep)
}

// probeLayers runs the hot and drain-bound cells directly through the
// engine under every scheme, timing workload generation and the engine
// separately and reading the per-layer counters. Counters only this
// workload has are printed beside the shared ones.
func probeLayers(c *runCtx, rep *report) error {
	schemes := append([]config.Scheme{config.SchemeBBB}, config.SecPBSchemes()...)
	runNs := map[config.Scheme]float64{}
	var hotNs, hotOps, drainNs, drainOps float64
	var wpqFull, physHashes, otps, macs, rootUpdates, pbOps, cycles, stalls float64
	var t simTotals
	for gi, group := range [][]string{hotProfiles, drainProfiles} {
		for _, name := range group {
			prof, err := workload.ByName(name)
			if err != nil {
				return err
			}
			t0 := time.Now()
			ops, err := workload.Generate(prof, c.seed, sweepOps)
			if err != nil {
				return err
			}
			t.addGen(time.Since(t0), len(ops))
			for _, s := range schemes {
				cfg := config.Default().WithScheme(s)
				cfg.Seed = c.seed
				before := t.engineNs
				eng, res, err := timedEngineRun(&t, cfg, prof, nil, ops)
				if err != nil {
					return err
				}
				ns := t.engineNs - before
				rep.attempted++
				if res.IntegrityErr != nil {
					rep.failed++
				}
				t.add(res)
				runNs[s] += ns
				if gi == 0 {
					hotNs, hotOps = hotNs+ns, hotOps+sweepOps
				} else {
					drainNs, drainOps = drainNs+ns, drainOps+sweepOps
				}
				n := float64(res.Loads + res.Stores)
				cycles += float64(res.Cycles)
				stalls += float64(res.Backpressure + res.SBStall + res.LoadStall)
				_, _, _, full := eng.Controller().WPQStats()
				wpqFull += float64(full)
				if tree := eng.Controller().Tree(); tree != nil {
					rootUpdates += float64(res.BMTRootUpdates)
					physHashes += float64(tree.PhysicalHashes())
				}
				if spb := eng.SecPB(); spb != nil {
					pbOps += n
					_, o, m, _ := spb.EarlyWorkStats()
					otps += float64(o)
					macs += float64(m)
				}
			}
		}
	}
	t.report(rep)
	perScheme := float64(len(hotProfiles)+len(drainProfiles)) * sweepOps
	for _, s := range schemes {
		rep.addInfo(metric{Name: "engine.run_ns_per_op." + s.String(), Value: runNs[s] / perScheme, Unit: "ns"})
	}
	rep.addInfo(metric{Name: "engine.hot_ns_per_op", Value: hotNs / hotOps, Unit: "ns"})
	rep.addInfo(metric{Name: "engine.drain_ns_per_op", Value: drainNs / drainOps, Unit: "ns"})
	rep.addInfo(metric{Name: "engine.sim_cycles", Value: cycles, Unit: "count"})
	rep.addInfo(metric{Name: "engine.stall_cycles", Value: stalls, Unit: "count"})
	rep.addInfo(metric{Name: "nvm.wpq_full_hits", Value: wpqFull, Unit: "count"})
	rep.addInfo(metric{Name: "bmt.physical_hashes_per_update", Value: ratio(physHashes, rootUpdates), Unit: "ratio"})
	rep.addInfo(metric{Name: "crypto.early_otps_per_kop", Value: perKop(otps, pbOps), Unit: "count"})
	rep.addInfo(metric{Name: "crypto.early_macs_per_kop", Value: perKop(macs, pbOps), Unit: "count"})
	return nil
}
