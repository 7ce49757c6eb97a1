package main

import (
	"time"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/crashpoint"
	"secpb/internal/engine"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// named is a metric name with its unit.
type named struct{ name, unit string }

// e2eMetrics and layerMetrics are the metrics BENCHMARK.json lists.
// Every workload reports each of them, so the result line of a run with
// --trace 0 holds exactly e2eMetrics and that of a run with --trace 1
// exactly layerMetrics. What only one workload has (the stream's
// durability latencies, the crash matrix's recovery split, the
// coherence counts) is printed beside them and kept in the record, but
// is not in the result line.
var (
	e2eMetrics = []named{
		{"setup_s", "s"},
		{"sim_mops", "Mop/s"},
		{"latency_ms", "ms"},
		{"mean_rss_mb", "MB"},
	}
	layerMetrics = []named{
		{"workload.gen_ns_per_op", "ns"},
		{"engine.ns_per_op", "ns"},
		{"engine.cycles_per_op", "cycles"},
		{"engine.stall_cycles_per_op", "cycles"},
		{"mem.l1_hit_rate", "ratio"},
		{"pb.nwpe", "count"},
		{"pb.entries_per_kop", "count"},
		{"pb.peak_occupancy", "count"},
		{"nvm.pm_writes_per_kop", "count"},
		{"nvm.pm_reads_per_kop", "count"},
		{"bmt.root_updates_per_kop", "count"},
	}
)

// simTotals accumulates the named statistics of simulated results. Every
// workload's traced run feeds it the results of its own inputs and
// reports it as the shared per-layer counts; the counts are
// deterministic, so a perf-only change leaves them identical.
type simTotals struct {
	cells, ops, stalls, cycles      float64
	l1, llc, pmr, pmw               float64
	secureOps, rootUpdates          float64
	pbCells, pbOps, nwpe, entries   float64
	peak                            int
	genNs, genOps, engineNs, engOps float64
}

func (t *simTotals) add(res engine.Result) {
	n := float64(res.Loads + res.Stores)
	t.cells++
	t.ops += n
	t.l1 += res.L1Hit
	t.llc += res.LLCHit
	t.pmr += float64(res.PMReads)
	t.pmw += float64(res.PMWrites)
	t.cycles += float64(res.Cycles)
	t.stalls += float64(res.Backpressure + res.SBStall + res.LoadStall)
	if res.Scheme.Secure() {
		t.secureOps += n
		t.rootUpdates += float64(res.BMTRootUpdates)
		t.pbCells++
		t.pbOps += n
		t.nwpe += res.NWPE
		t.entries += float64(res.EntriesAllocated)
		if res.PeakOccupancy > t.peak {
			t.peak = res.PeakOccupancy
		}
	}
}

// addGen and addEngine add host time spent generating ops and inside the
// engine's step calls.
func (t *simTotals) addGen(d time.Duration, ops int) {
	t.genNs += float64(d.Nanoseconds())
	t.genOps += float64(ops)
}

func (t *simTotals) addEngine(d time.Duration, ops int) {
	t.engineNs += float64(d.Nanoseconds())
	t.engOps += float64(ops)
}

func (t *simTotals) report(rep *report) {
	rep.addLayer(metric{Name: "workload.gen_ns_per_op", Value: ratio(t.genNs, t.genOps), Unit: "ns"})
	rep.addLayer(metric{Name: "engine.ns_per_op", Value: ratio(t.engineNs, t.engOps), Unit: "ns"})
	rep.addLayer(metric{Name: "engine.cycles_per_op", Value: ratio(t.cycles, t.ops), Unit: "cycles"})
	rep.addLayer(metric{Name: "engine.stall_cycles_per_op", Value: ratio(t.stalls, t.ops), Unit: "cycles"})
	rep.addLayer(metric{Name: "mem.l1_hit_rate", Value: ratio(t.l1, t.cells), Unit: "ratio"})
	rep.addLayer(metric{Name: "pb.nwpe", Value: ratio(t.nwpe, t.pbCells), Unit: "count"})
	rep.addLayer(metric{Name: "pb.entries_per_kop", Value: perKop(t.entries, t.pbOps), Unit: "count"})
	rep.addLayer(metric{Name: "pb.peak_occupancy", Value: float64(t.peak), Unit: "count"})
	rep.addLayer(metric{Name: "nvm.pm_writes_per_kop", Value: perKop(t.pmw, t.ops), Unit: "count"})
	rep.addLayer(metric{Name: "nvm.pm_reads_per_kop", Value: perKop(t.pmr, t.ops), Unit: "count"})
	rep.addLayer(metric{Name: "bmt.root_updates_per_kop", Value: perKop(t.rootUpdates, t.secureOps), Unit: "count"})
	// Short traces (the crash cells') see no LLC reuse at all, so this
	// rate reads 0 there and is kept out of the shared list.
	rep.addInfo(metric{Name: "mem.llc_hit_rate", Value: ratio(t.llc, t.cells), Unit: "ratio"})
}

func perKop(x, ops float64) float64 {
	if ops == 0 {
		return 0
	}
	return x / ops * 1000
}

func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// nopSink is a crash sink that ignores every crash point. Installed on
// an engine, it keeps the crash pipeline engaged (and so the specialised
// kernels off) without capturing snapshots: the engine's share of a
// crash cell's work.
type nopSink struct{}

func (nopSink) CrashPoint(crashpoint.Kind, addr.Block) {}

// timedEngineRun runs ops through a fresh engine for cfg and prof with
// the crash sink s (nil for none), adds the engine time to t, and
// returns the engine and its result.
func timedEngineRun(t *simTotals, cfg config.Config, prof workload.Profile, s crashpoint.Sink, ops []trace.Op) (*engine.Engine, engine.Result, error) {
	eng, err := engine.New(cfg, prof, engine.ExperimentKey)
	if err != nil {
		return nil, engine.Result{}, err
	}
	t0 := time.Now()
	if s != nil {
		eng.SetCrashSink(s)
		err = eng.Run(trace.NewSliceSource(ops))
	} else {
		err = eng.RunBatch(trace.NewSliceBatchSource(ops))
	}
	t.addEngine(time.Since(t0), len(ops))
	if err != nil {
		return nil, engine.Result{}, err
	}
	return eng, eng.Collect(), nil
}
