package harness

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/workload"
)

// traceLog records the shared-trace events of the grids run while it is
// installed.
type traceLog struct {
	mu          sync.Mutex
	gens, drops map[traceKey]int
	live, peak  int
}

func installTraceLog(t *testing.T) *traceLog {
	t.Helper()
	l := &traceLog{}
	l.reset()
	traceHook = func(k traceKey, live bool) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if live {
			l.gens[k]++
			l.live++
			l.peak = max(l.peak, l.live)
		} else {
			l.drops[k]++
			l.live--
		}
	}
	t.Cleanup(func() { traceHook = nil })
	return l
}

func (l *traceLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gens, l.drops = map[traceKey]int{}, map[traceKey]int{}
	l.live, l.peak = 0, 0
}

// check fails unless exactly wantGens distinct traces were generated,
// each once, and every generated trace has been dropped.
func (l *traceLog) check(t *testing.T, what string, wantGens int) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.gens) != wantGens {
		t.Errorf("%s: generated %d distinct traces, want %d", what, len(l.gens), wantGens)
	}
	for k, n := range l.gens {
		if n != 1 {
			t.Errorf("%s: trace %s/seed %d generated %d times, want once", what, k.prof.Name, k.seed, n)
		}
	}
	if !reflect.DeepEqual(l.gens, l.drops) || l.live != 0 {
		t.Errorf("%s: %d traces still live after the grid returned (generated %v, dropped %v)",
			what, l.live, l.gens, l.drops)
	}
}

// TestSharedTraceMatchesPerCell: every cell of the Table IV, Figure 7
// and ablation grids, replayed from its benchmark's shared trace, must
// equal a per-cell engine.RunBenchmark in every Result field, serially
// and with concurrent readers of one trace.
func TestSharedTraceMatchesPerCell(t *testing.T) {
	type cell struct {
		job simJob
		res engine.Result
	}
	var (
		mu    sync.Mutex
		cells []cell
	)
	gridHook = func(jobs []simJob, res []engine.Result) {
		mu.Lock()
		defer mu.Unlock()
		for i, j := range jobs {
			cells = append(cells, cell{j, res[i]})
		}
	}
	t.Cleanup(func() { gridHook = nil })

	want := map[CellKey]engine.Result{}
	for _, par := range []int{1, 4} {
		cells = nil
		o := DefaultOptions()
		o.Ops = 3000
		o.Benchmarks = []string{"gamess", "mcf"}
		o.Parallelism = par
		if _, _, err := Table4(o); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Figure7(o); err != nil {
			t.Fatal(err)
		}
		if _, err := Ablation(o); err != nil {
			t.Fatal(err)
		}
		if len(cells) == 0 {
			t.Fatal("no grid reported its cells")
		}
		for _, c := range cells {
			k := cellKey(c.job.cfg, c.job.prof, o.Ops)
			ref, ok := want[k]
			if !ok {
				var err error
				if ref, err = engine.RunBenchmark(c.job.cfg, c.job.prof, o.Ops); err != nil {
					t.Fatal(err)
				}
				want[k] = ref
			}
			if !reflect.DeepEqual(c.res, ref) {
				t.Fatalf("parallelism %d, %s/%v/%d entries: shared-trace result differs from RunBenchmark:\nshared: %+v\nper-cell: %+v",
					par, c.job.prof.Name, c.job.cfg.Scheme, c.job.cfg.SecPBEntries, c.res, ref)
			}
		}
	}
}

// TestSharedTraceGeneratedOncePerKey: a grid with memo misses generates
// exactly one trace per benchmark, an all-hit grid generates none, and
// no grid holds more than workers+1 traces at once.
func TestSharedTraceGeneratedOncePerKey(t *testing.T) {
	log := installTraceLog(t)
	for _, par := range []int{1, 4} {
		o := DefaultOptions()
		o.Ops = 2000
		o.Benchmarks = []string{"gamess", "mcf", "povray"}
		o.Parallelism = par
		o.Memo = NewCellMemo()
		steps := []struct {
			name string
			run  func() error
			gens int
		}{
			{"table4", func() error { _, _, err := Table4(o); return err }, 3},
			{"fig6 (all memo hits)", func() error { _, _, err := Figure6(o); return err }, 0},
			{"fig7", func() error { _, _, err := Figure7(o); return err }, 3},
		}
		for _, s := range steps {
			log.reset()
			if err := s.run(); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("parallelism %d, %s", par, s.name)
			log.check(t, what, s.gens)
			if log.peak > par+1 {
				t.Errorf("%s: %d traces live at once, want at most %d", what, log.peak, par+1)
			}
		}
	}
}

// TestSharedTraceKeyCoversProfile: two profiles with the same Name but
// different fields must not share a trace.
func TestSharedTraceKeyCoversProfile(t *testing.T) {
	log := installTraceLog(t)
	prof, err := workload.ByName("gamess")
	if err != nil {
		t.Fatal(err)
	}
	variant := prof
	variant.Burst++
	cfg := config.Default().WithScheme(config.SchemeCOBCM)
	jobs := []simJob{{cfg, prof}, {cfg, variant}}
	o := DefaultOptions()
	o.Ops = 2000
	o.Parallelism = 1
	res, err := o.runAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	log.check(t, "same-name variants", 2)
	for i, j := range jobs {
		ref, err := engine.RunBenchmark(j.cfg, j.prof, o.Ops)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i], ref) {
			t.Errorf("job %d replayed the wrong trace", i)
		}
	}
	if reflect.DeepEqual(res[0], res[1]) {
		t.Error("profile variant simulated the same stream as the original")
	}
}

// TestSharedTraceReleasedOnFailure: when a job fails and the pool skips
// the rest of the grid, runAll still drops every trace it generated.
func TestSharedTraceReleasedOnFailure(t *testing.T) {
	log := installTraceLog(t)
	gcc, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	mcf, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	good := config.Default().WithScheme(config.SchemeCOBCM)
	bad := good
	bad.BMTLevels = 0 // fails controller construction after the trace exists
	jobs := []simJob{{good, gcc}, {bad, gcc}, {good, gcc}, {good, mcf}, {good, mcf}}
	for _, par := range []int{1, 4} {
		log.reset()
		o := DefaultOptions()
		o.Ops = 2000
		o.Parallelism = par
		if _, err := o.runAll(jobs); err == nil {
			t.Fatalf("parallelism %d: grid with an invalid config succeeded", par)
		}
		log.mu.Lock()
		gens, live := len(log.gens), log.live
		log.mu.Unlock()
		if gens == 0 {
			t.Errorf("parallelism %d: the failing job's trace was never generated", par)
		}
		if live != 0 {
			t.Errorf("parallelism %d: %d traces still live after the failed grid returned", par, live)
		}
	}
}
