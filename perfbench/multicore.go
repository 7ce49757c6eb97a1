package main

import (
	"fmt"
	"time"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/workload"
)

// mcOps is the simulated op count per core of every multicore system.
const mcOps = 40_000

// mcDigestDefault is the digest of the three systems at defaultSeed.
const mcDigestDefault = "ba38daff5f365532"

var mcCores = []int{1, 2, 4}

func mcConfig(seed uint64, cores int) config.Config {
	cfg := config.Default().WithScheme(config.SchemeCOBCM).WithCores(cores)
	cfg.Seed = seed
	return cfg
}

// buildSystems constructs the 1-, 2- and 4-core gcc/COBCM systems.
// Systems are single-use, so every unit builds fresh ones.
func buildSystems(seed uint64) ([]*engine.System, error) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		return nil, err
	}
	var out []*engine.System
	for _, n := range mcCores {
		sys, err := engine.NewSystem(mcConfig(seed, n), prof, engine.ExperimentKey, mcOps)
		if err != nil {
			return nil, err
		}
		out = append(out, sys)
	}
	return out, nil
}

// mcUnit is one pass over the three core counts.
type mcUnit struct {
	wall  time.Duration // whole unit, including Collect
	build time.Duration
	runs  []time.Duration
	res   []engine.MCResult
}

func runMCUnit(seed uint64) (mcUnit, error) {
	var u mcUnit
	t0 := time.Now()
	systems, err := buildSystems(seed)
	if err != nil {
		return u, err
	}
	u.build = time.Since(t0)
	for _, sys := range systems {
		t := time.Now()
		if err := sys.Run(); err != nil {
			return u, err
		}
		u.runs = append(u.runs, time.Since(t))
		u.res = append(u.res, sys.Collect())
	}
	u.wall = time.Since(t0)
	return u, nil
}

// mcLines renders the named statistics of each system and each core.
func mcLines(rs []engine.MCResult) []string {
	var lines []string
	for _, r := range rs {
		lines = append(lines, fmt.Sprintf("x%d|cycles=%d|instrs=%d|migr=%d|rflush=%d",
			r.Cores, r.Cycles, r.Instrs, r.Migrations, r.ReadFlushes))
		for i, c := range r.PerCore {
			lines = append(lines, fmt.Sprintf("x%d|core%d|%s", r.Cores, i, resultLine(c)))
		}
	}
	return lines
}

func checkMCDigests(c *runCtx, rep *report, units []mcUnit) {
	first := digest(mcLines(units[0].res))
	want := first
	if c.seed == defaultSeed {
		want = mcDigestDefault
	}
	rep.linef("multicore digest %s (seed %d)", first, c.seed)
	ok := true
	for _, u := range units {
		if digest(mcLines(u.res)) != want {
			ok = false
		}
		for i := range u.res {
			if u.res[i].IntegrityErr() != nil {
				ok = false
				rep.failed++
			}
		}
	}
	rep.expect("multicore per-core digest matches", ok)
	perturbed := append([]engine.MCResult(nil), units[0].res...)
	last := &perturbed[len(perturbed)-1]
	last.PerCore = append([]engine.Result(nil), last.PerCore...)
	last.PerCore[0].EntriesAllocated++
	rep.control("multicore digest with one EntriesAllocated perturbed", digest(mcLines(perturbed)) == want)
}

func runMulticore(c *runCtx, rep *report) error {
	// Set-up is building the three systems (generators, engines, the
	// coherence domain); the built systems are discarded because each
	// measured unit needs fresh ones.
	setup, err := rep.setups(setupRepeats, func() error {
		_, err := buildSystems(c.seed)
		return err
	})
	if err != nil {
		return err
	}
	rep.addE2E(setup.timing("setup_s", "s"))

	var units []mcUnit
	end := c.deadline(1)
	if c.traced {
		end = time.Now() // one unit suffices for the per-layer numbers
	}
	for len(units) == 0 || time.Now().Before(end) {
		var u mcUnit
		var err error
		rep.unit(func() { u, err = runMCUnit(c.seed) })
		rep.attempted += len(mcCores)
		if err != nil {
			rep.failed += len(mcCores)
			return err
		}
		units = append(units, u)
	}
	checkMCDigests(c, rep, units)
	var rates, walls samples
	perCores := map[int]time.Duration{}
	for _, u := range units {
		walls = append(walls, ms(u.wall))
		var run time.Duration
		var ops float64
		for i, d := range u.runs {
			run += d
			ops += float64(mcCores[i] * mcOps)
			perCores[mcCores[i]] += d
		}
		rates = append(rates, ops/run.Seconds()/1e6)
	}
	if !c.traced {
		rep.addE2E(rates.timing("sim_mops", "Mop/s"))
		rep.addE2E(walls.timing("latency_ms", "ms"))
		rep.linef("multicore units=%d", len(units))
		return nil
	}
	u := units[0]
	plain, err := runMCUnit(c.seed)
	rep.attempted += len(mcCores)
	if err != nil {
		return err
	}
	spans := plain.build
	for _, d := range plain.runs {
		spans += d
	}
	rep.linef("tracing overhead multicore %+.4f s (traced %.4f s, untraced %.4f s)",
		(u.wall - plain.wall).Seconds(), u.wall.Seconds(), plain.wall.Seconds())
	rep.linef("residual multicore %.6f s of %.4f s (untraced unit wall minus build and Run spans)",
		(plain.wall - spans).Seconds(), plain.wall.Seconds())
	var epochs, migr, rflush, cycles float64
	var t simTotals
	prof, err := workload.ByName("gcc")
	if err != nil {
		return err
	}
	for i, n := range mcCores {
		rep.addInfo(metric{Name: fmt.Sprintf("engine.system_ns_per_core_op.c%d", n),
			Value: float64(perCores[n].Nanoseconds()) / float64(n*mcOps), Unit: "ns"})
		t.addEngine(perCores[n], n*mcOps)
		r := u.res[i]
		epochs += float64(r.Epochs)
		migr += float64(r.Migrations)
		rflush += float64(r.ReadFlushes)
		cycles += float64(r.Cycles)
		for _, res := range r.PerCore {
			t.add(res)
		}
		// The systems generate their cores' ops while they run; a probe
		// generates the same per-core streams on their own.
		for core := 0; core < n; core++ {
			t0 := time.Now()
			ops, err := workload.Generate(prof, engine.CoreSeed(c.seed, core), mcOps)
			if err != nil {
				return err
			}
			t.addGen(time.Since(t0), len(ops))
		}
	}
	t.report(rep)
	rep.addInfo(metric{Name: "engine.system_epochs", Value: epochs, Unit: "count"})
	rep.addInfo(metric{Name: "engine.sim_cycles", Value: cycles, Unit: "count"})
	rep.addInfo(metric{Name: "coherence.migrations", Value: migr, Unit: "count"})
	rep.addInfo(metric{Name: "coherence.read_flushes", Value: rflush, Unit: "count"})
	return nil
}
