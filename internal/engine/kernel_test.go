package engine

import (
	"fmt"
	"reflect"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/crashpoint"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// Every assertion in this file is "step path ≡ generic oracle"
// (oracle_test.go), or pins the per-op semantics both must share.

// crashRec is one crash point as a sink observes it: which hook fired,
// on which block, and the engine's clock and virtual SecPB occupancy at
// that instant.
type crashRec struct {
	kind  crashpoint.Kind
	block addr.Block
	now   uint64
	occ   int
}

// recSink records every crash point the engine, its SecPB and its
// controller fire.
type recSink struct {
	e   *Engine
	got []crashRec
}

func (s *recSink) CrashPoint(k crashpoint.Kind, b addr.Block) {
	s.got = append(s.got, crashRec{k, b, s.e.Now(), s.e.Occupancy()})
}

// runPath selects how runOn replays an op stream.
type runPath int

const (
	pathStep   runPath = iota // product: per-op Step, then Finish
	pathBatch                 // product: columnar RunBatch
	pathOracle                // test-only generic interpreter
)

func (p runPath) String() string { return [...]string{"step", "batch", "oracle"}[p] }

// outcome is everything a replay leaves observable.
type outcome struct {
	res     Result
	mem     map[addr.Block][addr.BlockBytes]byte
	occ     int
	peak    int
	crashes []crashRec
	err     string
}

// runOn replays ops on a fresh engine along path, recording crash
// points when sink is set.
func runOn(t testing.TB, cfg config.Config, prof workload.Profile, ops []trace.Op, path runPath, sink bool) outcome {
	t.Helper()
	eng, err := New(cfg, prof, []byte("secpb-experiment-key"))
	if err != nil {
		t.Fatalf("New(%v): %v", cfg.Scheme, err)
	}
	return replayOn(eng, ops, path, sink)
}

// replayOn replays ops on eng along path, recording crash points when
// sink is set.
func replayOn(eng *Engine, ops []trace.Op, path runPath, sink bool) outcome {
	var err error
	var rec *recSink
	if sink {
		rec = &recSink{e: eng}
		eng.SetCrashSink(rec)
	}
	switch path {
	case pathStep:
		for _, op := range ops {
			if err = eng.Step(op); err != nil {
				break
			}
		}
		if err == nil {
			err = eng.Finish()
		}
	case pathBatch:
		err = eng.RunBatch(trace.NewSliceBatchSource(ops))
	case pathOracle:
		err = eng.oracleRun(ops)
	}
	out := outcome{res: eng.Collect(), occ: eng.Occupancy(), peak: eng.PeakOccupancy()}
	if err != nil {
		out.err = err.Error()
	} else {
		out.mem = eng.Memory()
	}
	if rec != nil {
		out.crashes = rec.got
	}
	return out
}

// diffOutcomes reports the first field where got differs from the
// oracle's outcome.
func diffOutcomes(t testing.TB, label string, got, want outcome) {
	t.Helper()
	switch {
	case got.err != want.err:
		t.Errorf("%s: error %q, oracle %q", label, got.err, want.err)
	case !reflect.DeepEqual(got.res, want.res):
		t.Errorf("%s: result differs\nstep path: %+v\noracle:    %+v", label, got.res, want.res)
	case got.occ != want.occ || got.peak != want.peak:
		t.Errorf("%s: occupancy %d/%d, oracle %d/%d", label, got.occ, got.peak, want.occ, want.peak)
	case !reflect.DeepEqual(got.mem, want.mem):
		t.Errorf("%s: functional memory image differs", label)
	case len(got.crashes) != len(want.crashes):
		t.Errorf("%s: %d crash points, oracle %d", label, len(got.crashes), len(want.crashes))
	default:
		for i := range got.crashes {
			if got.crashes[i] != want.crashes[i] {
				t.Errorf("%s: crash point %d = %+v, oracle %+v", label, i, got.crashes[i], want.crashes[i])
				return
			}
		}
	}
}

// knobVariants are the configuration shapes the step path resolves
// differently: the default, blocking load verification, a SecPB small
// enough to force backflow, and the DVI-coalescing ablation.
var knobVariants = []struct {
	name string
	mut  func(config.Config) config.Config
}{
	{"default", func(c config.Config) config.Config { return c }},
	{"blocking-verify", func(c config.Config) config.Config {
		c.Speculative = false
		return c
	}},
	{"tiny-secpb", func(c config.Config) config.Config { return c.WithSecPBEntries(4) }},
	{"no-dvi", func(c config.Config) config.Config {
		c.DisableDVICoalescing = true
		return c
	}},
}

// TestKernelMatchesGeneric replays every scheme under every knob
// variant on two SPEC proxies, and every scheme on each workload-zoo
// generator, through the step path's batch replay and the generic
// oracle, and requires bit-identical results and functional state.
func TestKernelMatchesGeneric(t *testing.T) {
	type cell struct {
		cfg  config.Config
		prof workload.Profile
		ops  int
		name string
	}
	var cells []cell
	for _, scheme := range config.AllSchemes() {
		for _, v := range knobVariants {
			cfg := v.mut(config.Default().WithScheme(scheme))
			for _, p := range []string{"mcf", "gamess"} {
				cells = append(cells, cell{cfg, mustProfile(t, p), 4000, fmt.Sprintf("%v/%s/%s", scheme, v.name, p)})
			}
		}
		for _, p := range workload.ZooProfiles() {
			cells = append(cells, cell{config.Default().WithScheme(scheme), p, 3000, fmt.Sprintf("%v/zoo/%s", scheme, p.Name)})
		}
	}
	for _, c := range cells {
		if err := c.cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ops, err := workload.Generate(c.prof, c.cfg.Seed, c.ops)
		if err != nil {
			t.Fatal(err)
		}
		want := runOn(t, c.cfg, c.prof, ops, pathOracle, false)
		if want.err != "" {
			t.Fatalf("%s: oracle: %s", c.name, want.err)
		}
		diffOutcomes(t, c.name, runOn(t, c.cfg, c.prof, ops, pathBatch, false), want)
	}
}

// TestCrashPointsMatchGeneric installs a recording sink and requires
// the step path to fire the same crash points as the oracle — kind,
// block, cycle and virtual occupancy at every one — for every scheme,
// SP and the DVI-coalescing ablation included, through both per-op Step
// (the crash injector's path) and batch replay.
func TestCrashPointsMatchGeneric(t *testing.T) {
	prof := mustProfile(t, "gcc")
	for _, scheme := range config.AllSchemes() {
		for _, v := range knobVariants {
			cfg := v.mut(config.Default().WithScheme(scheme))
			ops, err := workload.Generate(prof, cfg.Seed, 2500)
			if err != nil {
				t.Fatal(err)
			}
			want := runOn(t, cfg, prof, ops, pathOracle, true)
			if len(want.crashes) == 0 {
				t.Fatalf("%v/%s: oracle fired no crash points", scheme, v.name)
			}
			for _, path := range []runPath{pathStep, pathBatch} {
				label := fmt.Sprintf("%v/%s/%v", scheme, v.name, path)
				diffOutcomes(t, label, runOn(t, cfg, prof, ops, path, true), want)
			}
		}
	}
}

// TestKernelBatchMatchesScalarStep replays the same op stream through
// the columnar batch path and the per-op Step path and requires
// identical results — the batch loop's block column, the inlined CPI
// accumulation and the in-loop L1 probes are wall-clock strategies,
// never result bits.
func TestKernelBatchMatchesScalarStep(t *testing.T) {
	prof := mustProfile(t, "povray")
	for _, scheme := range config.AllSchemes() {
		cfg := config.Default().WithScheme(scheme)
		ops, err := workload.Generate(prof, cfg.Seed, 6000)
		if err != nil {
			t.Fatal(err)
		}
		diffOutcomes(t, scheme.String(),
			runOn(t, cfg, prof, ops, pathBatch, false),
			runOn(t, cfg, prof, ops, pathStep, false))
	}
}

// opState is the slice of engine state one op moves.
type opState struct {
	now, loads, stores, pbServed uint64
	l1Hits, l1Misses             uint64
	occ                          int
	portFree, spFree, backpress  uint64
}

func stateOf(e *Engine) opState {
	hits, misses, _, _ := e.l1.Stats()
	return opState{
		now: e.now, loads: e.loads, stores: e.stores, pbServed: e.pbServedLoads,
		l1Hits: hits, l1Misses: misses, occ: e.virtualOcc,
		portFree: e.pbPortFree, spFree: e.spUnitFree, backpress: e.backpressure,
	}
}

// TestExecOp pins each op class's effect on the engine, table-driven:
// a case replays its setup ops, checks the before state, executes one
// op and checks the after state, on the step path and on the oracle.
// The profile's NonMemCPI is 1, so every gap-0 op retires in exactly one
// cycle and any further movement of now is the op's own stall.
func TestExecOp(t *testing.T) {
	const a = 0x10000000
	ld := func(x uint64) trace.Op { return trace.Op{Kind: trace.Load, Addr: x, Size: 8} }
	st := func(x uint64) trace.Op { return trace.Op{Kind: trace.Store, Addr: x, Size: 8, Data: x ^ 0x5ec} }
	fence := trace.Op{Kind: trace.Fence}
	// l1Conflicts loads the eight blocks that share a's L1 set (64 KiB,
	// 8-way: 128 sets, so an 8 KiB stride), evicting a from L1.
	var l1Conflicts []trace.Op
	for i := uint64(1); i <= 8; i++ {
		l1Conflicts = append(l1Conflicts, ld(a+i*8192))
	}
	// fill stores to n distinct blocks, one block apart.
	fill := func(n int) []trace.Op {
		var ops []trace.Op
		for i := 0; i < n; i++ {
			ops = append(ops, st(a+uint64(i)*addr.BlockBytes))
		}
		return ops
	}
	scheme := func(s config.Scheme) func(config.Config) config.Config {
		return func(c config.Config) config.Config { return c.WithScheme(s) }
	}
	for _, c := range []struct {
		name          string
		cfg           func(config.Config) config.Config
		setup         []trace.Op
		op            trace.Op
		before, after opState
	}{
		{
			// Fully pipelined: no stall.
			name: "load/L1-hit", cfg: scheme(config.SchemeCOBCM),
			setup: []trace.Op{ld(a)}, op: ld(a),
			before: opState{now: 34, loads: 1, l1Misses: 2},
			after:  opState{now: 35, loads: 2, l1Hits: 1, l1Misses: 2},
		},
		{
			// a was stored (SecPB entry) and then evicted from L1: the
			// SecPB serves it for one port access, 2/MLP = 0 stall
			// cycles, and refills L1.
			name: "load/SecPB-served", cfg: scheme(config.SchemeCOBCM),
			setup: append([]trace.Op{st(a)}, l1Conflicts...), op: ld(a),
			before: opState{now: 273, loads: 8, stores: 1, l1Misses: 17, occ: 1, portFree: 3},
			after:  opState{now: 274, loads: 9, stores: 1, pbServed: 1, l1Misses: 18, occ: 1, portFree: 3},
		},
		{
			// Cold block from PM with blocking verification: L1+L2+L3+PM
			// read minus the L1 latency, plus the MAC check, over MLP:
			// (2+20+30+220-2+40)/8 = 38 stall cycles (the controller
			// reports no BMT levels for this never-written block). The
			// L1 miss is counted twice.
			name: "load/PM-blocking-verify", cfg: func(c config.Config) config.Config {
				c.Speculative = false
				return c
			},
			op:    ld(a),
			after: opState{now: 39, loads: 1, l1Misses: 2},
		},
		{
			// Resident entry under NoGap: acceptance is one port access,
			// the ciphertext XOR (1 + port) and the MAC, 2+3+40 cycles
			// after the port frees; the core does not wait.
			name: "store/coalescing", cfg: scheme(config.SchemeNoGap),
			setup: []trace.Op{st(a)}, op: st(a + 8),
			before: opState{now: 1, stores: 1, l1Misses: 1, occ: 1, portFree: 2303},
			after:  opState{now: 2, stores: 2, l1Hits: 1, l1Misses: 1, occ: 1, portFree: 2348},
		},
		{
			// A new NoGap entry: OTP, XOR and MAC chain off the counter
			// fetch, and the BMT walk runs in parallel with that chain and
			// is the longer branch: 1 + port 2 + counter from PM 220 + 8
			// levels × (MAC 40 + node fetch 220) = 2303.
			name: "store/allocating", cfg: scheme(config.SchemeNoGap),
			op:    st(a),
			after: opState{now: 1, stores: 1, l1Misses: 1, occ: 1, portFree: 2303},
		},
		{
			// Four BBB entries, all resident or in flight: the fifth
			// block waits 6 cycles for the oldest drain, then takes one
			// port access; the reaped slot keeps occupancy at 4.
			name: "store/backflow", cfg: func(c config.Config) config.Config {
				return c.WithScheme(config.SchemeBBB).WithSecPBEntries(4)
			},
			setup: fill(4), op: st(a + 4*addr.BlockBytes),
			before: opState{now: 4, stores: 4, l1Misses: 4, occ: 4, portFree: 9},
			after:  opState{now: 5, stores: 5, l1Misses: 5, occ: 4, portFree: 17, backpress: 6},
		},
		{
			// No SecPB: the store streams through the MC pipeline, 10
			// cycles plus 30 per BMT level.
			name: "store/SP", cfg: scheme(config.SchemeSP),
			op:    st(a),
			after: opState{now: 1, stores: 1, l1Misses: 1, spFree: 251},
		},
		{
			// Ablation: the same store as store/coalescing redoes the
			// per-entry work. The counter and BMT nodes are now cached,
			// so the walk costs 2 + 2 + 8 × 40 = 324 cycles past 2303.
			name: "store/no-DVI", cfg: func(c config.Config) config.Config {
				c = c.WithScheme(config.SchemeNoGap)
				c.DisableDVICoalescing = true
				return c
			},
			setup: []trace.Op{st(a)}, op: st(a + 8),
			before: opState{now: 1, stores: 1, l1Misses: 1, occ: 1, portFree: 2303},
			after:  opState{now: 2, stores: 2, l1Hits: 1, l1Misses: 1, occ: 1, portFree: 2627},
		},
		{
			// The fence waits for the store buffer: now jumps to the
			// pending store's acceptance.
			name: "fence", cfg: scheme(config.SchemeNoGap),
			setup: []trace.Op{st(a)}, op: fence,
			before: opState{now: 1, stores: 1, l1Misses: 1, occ: 1, portFree: 2303},
			after:  opState{now: 2303, stores: 1, l1Misses: 1, occ: 1, portFree: 2303},
		},
	} {
		prof := mustProfile(t, "mcf")
		prof.NonMemCPI = 1
		cfg := c.cfg(config.Default())
		for _, path := range []runPath{pathStep, pathOracle} {
			t.Run(fmt.Sprintf("%s/%v", c.name, path), func(t *testing.T) {
				e, err := New(cfg, prof, []byte("k"))
				if err != nil {
					t.Fatal(err)
				}
				exec := e.Step
				if path == pathOracle {
					exec = e.oracleStep
				}
				for _, op := range c.setup {
					if err := exec(op); err != nil {
						t.Fatal(err)
					}
				}
				if got := stateOf(e); got != c.before {
					t.Errorf("before = %+v, want %+v", got, c.before)
				}
				if err := exec(c.op); err != nil {
					t.Fatal(err)
				}
				if got := stateOf(e); got != c.after {
					t.Errorf("after = %+v, want %+v", got, c.after)
				}
			})
		}
	}
}

// FuzzKernelVsGeneric decodes an arbitrary byte string into an op
// stream and replays it through the step path and the generic oracle,
// with and without a recording crash sink, requiring identical results,
// functional memory, crash points and error outcomes.
func FuzzKernelVsGeneric(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}, uint8(7))
	f.Add([]byte("secpb-kernel-differential-seed-corpus"), uint8(5))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xaa, 0x55, 0xaa, 0x55, 0x10, 0x42}, uint8(2))
	f.Add([]byte("crash sinks, SP and the DVI ablation on the step path"), uint8(0x1b))
	// 96 whole-word stores to distinct blocks, 7 gap instructions
	// apart, under a sink: drains complete between stores, so the
	// occupancy each store-accept point sees depends on where the hook
	// sits relative to reaping them.
	var burst []byte
	for i := 0; i < 96; i++ {
		burst = append(burst, 4, byte(i*8), 0xe3)
	}
	f.Add(burst, uint8(4|2<<3))
	prof, err := workload.ByName("mcf")
	if err != nil {
		f.Fatal(err)
	}
	schemes := config.AllSchemes()
	f.Fuzz(func(t *testing.T, raw []byte, sel uint8) {
		// sel: bit 0 speculative verification, bit 1 DVI ablation,
		// bit 2 crash sink, the rest the scheme.
		scheme := schemes[int(sel>>3)%len(schemes)]
		// Tiny buffer: exercises backflow, forced drains and, with
		// blocking verification, the load integrity-check latency.
		cfg := config.Default().WithScheme(scheme).WithSecPBEntries(8)
		cfg.Speculative = sel&1 == 0
		cfg.DisableDVICoalescing = sel&2 != 0
		sink := sel&4 != 0
		ops := decodeFuzzOps(raw)
		if len(ops) == 0 {
			return
		}
		want := runOn(t, cfg, prof, ops, pathOracle, sink)
		diffOutcomes(t, "step", runOn(t, cfg, prof, ops, pathStep, sink), want)
		diffOutcomes(t, "batch", runOn(t, cfg, prof, ops, pathBatch, sink), want)
	})
}

// decodeFuzzOps turns a fuzz input into a bounded well-formed op
// stream: loads, stores of every size, and fences over a small working
// set (to make coalescing, eviction and backflow all reachable).
func decodeFuzzOps(raw []byte) []trace.Op {
	var ops []trace.Op
	for i := 0; i+2 < len(raw) && len(ops) < 512; i += 3 {
		b0, b1, b2 := raw[i], raw[i+1], raw[i+2]
		gap := uint32(b2 >> 5)
		switch b0 % 8 {
		case 0, 1, 2: // load
			ops = append(ops, trace.Op{
				Kind: trace.Load,
				Addr: uint64(b1) << 3,
				Size: 8,
				Gap:  gap,
			})
		case 3: // fence
			ops = append(ops, trace.Op{Kind: trace.Fence, Gap: gap})
		default: // store, size 1/2/4/8, aligned to size
			size := uint8(1) << (b2 & 3)
			a := (uint64(b1) << 3) &^ (uint64(size) - 1)
			ops = append(ops, trace.Op{
				Kind: trace.Store,
				Addr: a,
				Size: size,
				Data: uint64(b0)<<32 | uint64(b1)<<8 | uint64(b2),
				Gap:  gap,
			})
		}
	}
	return ops
}
