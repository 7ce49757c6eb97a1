// Race-detector instrumentation itself allocates, so this pin only holds
// on uninstrumented builds; ci.sh runs it in a dedicated non-race pass.
//go:build !race

package engine

import (
	"runtime"
	"testing"

	"secpb/internal/config"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// batchSink keeps the budget measurement's batch on the heap, where
// RunBatch's own batch lives.
var batchSink *trace.Batch

// TestRunBatchSteadyStateAlloc pins RunBatch's per-call overhead to its
// one batch buffer: a secure-scheme replay of an already-touched working
// set allocates no more than trace.NewBatch(trace.DefaultBatchCap) does.
// GOMAXPROCS is raised to 2 so that any per-call machinery gated on
// parallel hardware (a worker engine, pad buffers, a second batch)
// would show up in the count.
func TestRunBatchSteadyStateAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := config.Default() // COBCM: OTP, MAC and BMT on every drain
	prof := mustProfile(t, "povray")
	ops, err := workload.Generate(prof, cfg.Seed, 3*trace.DefaultBatchCap)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg, prof, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	src := trace.NewSliceBatchSource(ops)
	run := func() {
		src.Reset()
		if err := e.RunBatch(src); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run() // touch the working set: metadata pages, PM cells, tree nodes
	}
	budget := testing.AllocsPerRun(10, func() { batchSink = trace.NewBatch(trace.DefaultBatchCap) })
	if got := testing.AllocsPerRun(10, run); got > budget {
		t.Fatalf("RunBatch allocates %g objects per call, budget %g (one batch buffer)", got, budget)
	}
}
