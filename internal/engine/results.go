package engine

import (
	"fmt"

	"secpb/internal/config"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// ResultsVersion stamps persisted simulation results. Any change to
// the Result fields, their semantics, or anything that alters modeled
// numbers for the same inputs (cycle accounting, cache policy, crypto
// schedule) must bump it: persistent caches embed the stamp in every
// record and treat a mismatch as a miss, so stale results can never
// leak into artifacts after the simulator changes underneath them.
const ResultsVersion = "secpb-results-v1"

// ExperimentKey is the fixed memory-encryption key every experiment
// path uses (RunBenchmark, RunRecorded, and the streaming service), so
// results from any of them are comparable byte for byte.
var ExperimentKey = []byte("secpb-experiment-key")

// Result summarizes one simulation run.
type Result struct {
	Benchmark string
	Scheme    config.Scheme

	Cycles       uint64
	Instructions uint64
	Loads        uint64
	Stores       uint64

	// Paper statistics.
	PPTI float64 // persists per kilo-instruction
	NWPE float64 // writes per drained SecPB entry
	IPC  float64

	// SecPB behaviour.
	EntriesAllocated uint64
	PeakOccupancy    int    // high-water SecPB occupancy (battery sizing)
	BMTRootUpdates   uint64 // functional leaf-to-root walks (drain-side)
	EarlyBMTWalks    uint64 // walks charged at allocation (eager schemes)
	PBServedLoads    uint64
	Backpressure     uint64 // cycles stalled on a full SecPB
	SBStall          uint64 // cycles stalled on a full store buffer
	LoadStall        uint64

	// Battery-exposure window (Figure 3's draining + sec-sync gaps):
	// cycles from an entry's point of persistency to the completion of
	// its memory-tuple drain.
	GapMean float64
	GapP99  uint64

	// Memory system.
	PMReads, PMWrites uint64
	L1Hit, LLCHit     float64
	Reencryptions     uint64

	IntegrityErr error
}

// Collect gathers the result after Run.
func (e *Engine) Collect() Result {
	r := Result{
		Benchmark:    e.prof.Name,
		Scheme:       e.cfg.Scheme,
		Cycles:       e.now,
		Instructions: e.instrs,
		Loads:        e.loads,
		Stores:       e.stores,
		LoadStall:    e.loadStall,
		Backpressure: e.backpressure,
		SBStall:      e.sb.StallCycles(),
		IntegrityErr: e.integrityErr,
	}
	if e.instrs > 0 {
		r.PPTI = float64(e.stores) / float64(e.instrs) * 1000
		if e.now > 0 {
			r.IPC = float64(e.instrs) / float64(e.now)
		}
	}
	if e.spb != nil {
		_, allocs := e.spb.Stats()
		r.EntriesAllocated = allocs
		r.PeakOccupancy = e.peakOcc
		r.NWPE = e.spb.NWPE()
		earlyBMT, _, _, _ := e.spb.EarlyWorkStats()
		r.EarlyBMTWalks = earlyBMT
		r.PBServedLoads = e.pbServedLoads
	}
	if t := e.mc.Tree(); t != nil {
		r.BMTRootUpdates = t.Updates()
	}
	r.GapMean = e.gapHist.Mean()
	r.GapP99 = e.gapHist.Percentile(0.99)
	r.PMReads, r.PMWrites = e.mc.PM().Stats()
	r.L1Hit = e.hier.L1().HitRate()
	r.LLCHit = e.hier.L3().HitRate()
	r.Reencryptions = e.mc.Reencrypts()
	return r
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s: %d instrs in %d cycles (IPC %.2f, PPTI %.1f, NWPE %.1f)",
		r.Benchmark, r.Scheme, r.Instructions, r.Cycles, r.IPC, r.PPTI, r.NWPE)
}

// RunBenchmark simulates nops operations of the named profile under cfg
// and returns the result. The workload stream is deterministic in
// (profile, cfg.Seed, nops) and replays through RunRecorded.
func RunBenchmark(cfg config.Config, prof workload.Profile, nops uint64) (Result, error) {
	gen, err := workload.NewGenerator(prof, cfg.Seed, nops)
	if err != nil {
		return Result{}, err
	}
	return RunRecorded(cfg, prof, gen)
}

// RunRecorded is the one run path behind every healthy simulation: it
// replays src through a fresh engine's batched loop, whether src is the
// live generator (RunBenchmark), a recorded trace file or a cursor over
// a trace shared by an experiment grid. Any of them carrying the ops of
// workload.NewGenerator(prof, cfg.Seed, n) yields a Result identical to
// RunBenchmark(cfg, prof, n). Sources that surface decode errors after
// end-of-stream (trace.FileBatchSource's Err) fail the run rather than
// silently truncating it.
func RunRecorded(cfg config.Config, prof workload.Profile, src trace.BatchSource) (Result, error) {
	eng, err := New(cfg, prof, ExperimentKey)
	if err != nil {
		return Result{}, err
	}
	if err := eng.RunBatch(src); err != nil {
		return Result{}, err
	}
	if c, ok := src.(interface{ Err() error }); ok {
		if err := c.Err(); err != nil {
			return Result{}, fmt.Errorf("engine: replaying recorded trace: %w", err)
		}
	}
	res := eng.Collect()
	if res.IntegrityErr != nil {
		return res, fmt.Errorf("engine: integrity violation during healthy run: %w", res.IntegrityErr)
	}
	return res, nil
}
