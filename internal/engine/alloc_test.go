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

// TestRunBatchSteadyStateAlloc pins RunBatch's per-call overhead at
// zero: once an engine has run, its own batch buffer serves every later
// call, so a secure-scheme replay of an already-touched working set
// allocates nothing, whether the source is a cursor (which repoints the
// batch at its own columns) or a generator (which fills it). The two
// sources alternate on one engine, so a cursor's views left on the
// engine would send the generator's appends into the cursor's ops,
// which the cursor pass after it would then replay wrongly.
// GOMAXPROCS is raised to 2 so that any per-call machinery gated on
// parallel hardware (a worker engine, pad buffers, a second batch)
// would show up in the count.
func TestRunBatchSteadyStateAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := config.Default() // COBCM: OTP, MAC and BMT on every drain
	prof := mustProfile(t, "povray")
	const n = 3 * trace.DefaultBatchCap
	ops, err := workload.Generate(prof, cfg.Seed, n)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg, prof, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	cursor := trace.NewSliceBatchSource(ops)
	const runs = 10
	gens := make([]*workload.Generator, 0, 3+2*(runs+1))
	for i := 0; i < cap(gens); i++ {
		g, err := workload.NewGenerator(prof, cfg.Seed+1, n)
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, g)
	}
	run := func(src trace.BatchSource) {
		if err := e.RunBatch(src); err != nil {
			t.Fatal(err)
		}
	}
	runCursor := func() {
		cursor.Reset()
		run(cursor)
	}
	runGen := func() {
		run(gens[0])
		gens = gens[1:]
	}
	for i := 0; i < 3; i++ {
		// Touch the working set: metadata pages, PM cells, tree nodes.
		// The engine's batch must survive Reset.
		runCursor()
		if err := e.Reset(cfg, prof, []byte("k")); err != nil {
			t.Fatal(err)
		}
		runGen()
	}
	if got := testing.AllocsPerRun(runs, runCursor); got != 0 {
		t.Errorf("RunBatch over a cursor allocates %g objects per call, want 0", got)
	}
	if got := testing.AllocsPerRun(runs, runGen); got != 0 {
		t.Errorf("RunBatch over a generator allocates %g objects per call, want 0", got)
	}
	cursor.Reset()
	var got []trace.Op
	var b trace.Batch
	for cursor.NextBatch(&b) {
		for i := 0; i < b.Len(); i++ {
			got = append(got, b.Op(i))
		}
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Fatalf("op %d of the cursor's trace overwritten: %+v, was %+v", i, got[i], ops[i])
		}
	}
}
