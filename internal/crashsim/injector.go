package crashsim

import (
	"fmt"
	"sync"

	"secpb/internal/addr"
	"secpb/internal/bmt"
	"secpb/internal/config"
	"secpb/internal/core"
	"secpb/internal/crashpoint"
	"secpb/internal/engine"
	"secpb/internal/meta"
	"secpb/internal/nvm"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// Snapshot is everything that survives a power failure at one crash
// point: the persisted NV image (PM blocks, counter store, MAC store,
// BMT plus its NV root register) and the battery-backed domain (SecPB
// entries including an interrupted in-flight drain, which models the
// memory-controller latches the battery also sustains). Volatile state —
// metadata caches, clocks, the core's program view — is deliberately
// absent. A Snapshot is single-use: RecoverVerify mutates the captured
// image while draining. It is also valid only for the duration of the
// Handler call that receives it: once the handler returns, the injector
// recycles the snapshot and its stores (PM image, counter and MAC
// stores, tree) as the destination of the next capture, so that each
// capture copies only the present data into pages it already owns. The
// controller its recovery booted is recycled with it and rebooted onto
// the next capture.
type Snapshot struct {
	Kind       crashpoint.Kind
	PointIndex uint64 // ordinal among all points fired this run
	OpIndex    int    // trace op being executed when the point fired (len(ops) after the last)
	Cycle      uint64 // engine clock at capture
	Committed  int    // stores past the point of persistency
	InFlight   bool   // a drain was interrupted mid-tuple

	cfg     config.Config
	key     []byte
	pm      *nvm.PM
	ctrs    *meta.CounterStore
	macs    *meta.MACStore
	tree    *bmt.Tree
	entries []core.Entry
	// rec is the recovery controller and scratch recycled with the
	// stores (see recoverer).
	rec *recoverer
}

// Handler receives each captured snapshot together with the golden
// plaintext image for its committed prefix. Both are valid only during
// the call: the golden map is live shadow state, and the snapshot's
// stores are recycled into the next capture once the handler returns.
// Consume them synchronously and retain neither. Custom
// handlers (InjectTraceWith) choose their own recovery procedure —
// e.g. RecoverVerifyResumable for nested-crash scenarios — and report
// findings through state they close over; a returned error aborts the
// run (harness failure, not a finding).
type Handler func(snap *Snapshot, golden map[addr.Block][addr.BlockBytes]byte) error

// NumEntries returns how many battery-backed entries the snapshot holds
// (the late work a recovery must fund).
func (s *Snapshot) NumEntries() int { return len(s.entries) }

// Injector drives one simulated run and crashes it at chosen points. It
// implements crashpoint.Sink: every hook firing is counted, and firings
// whose ordinal matches the sorted trigger list are captured, recovered
// and verified in place. Capturing in place (rather than halting and
// replaying) is equivalent to a real crash — recovery operates on deep
// clones of exactly the state a power failure would leave — and lets one
// pass service thousands of crash points with one snapshot alive, whose
// stores every capture after the first reuses.
type Injector struct {
	eng      *engine.Engine
	cfg      config.Config
	key      []byte
	src      *trace.SliceBatchSource
	shadow   *shadow
	triggers []uint64 // sorted ascending, distinct
	cursor   int
	handle   Handler
	mask     []bool // per-kind enable; points of masked-out kinds are not counted

	points  uint64
	perKind []uint64 // indexed by crashpoint.Kind
	err     error
	// snap is the rig's snapshot, handed to the handler and recaptured
	// in place at every trigger.
	snap *Snapshot
}

// rig is one worker's crash-cell machinery, recycled from cell to cell:
// the engine both passes of a cell run on, reset in place before each
// (engine.Reset), the columnar copy of the cell's ops the engine
// replays, the golden shadow, and the snapshot whose stores and
// recovery state every capture reuses. A cell takes a rig from rigs
// and returns it when it ends, so a worker pool that runs one cell
// after another — Explore's, or any caller's — builds the machinery
// once per worker instead of twice per cell; rigs left idle are freed
// by the garbage collector.
type rig struct {
	eng    *engine.Engine
	ops    trace.Batch
	shadow shadow
	snap   *Snapshot
}

var rigs = sync.Pool{New: func() any { return newRig() }}

func newRig() *rig { return &rig{snap: &Snapshot{rec: new(recoverer)}} }

// newInjector readies r for one pass over ops under cfg: the engine is
// built on r's first pass and reset to New's state on every later one,
// the rig's columnar copy is refilled with ops in place, and the shadow
// is emptied onto ops.
func newInjector(r *rig, cfg config.Config, prof workload.Profile, key []byte, ops []trace.Op, triggers []uint64, h Handler) (*Injector, error) {
	if r.eng == nil {
		eng, err := engine.New(cfg, prof, key)
		if err != nil {
			return nil, err
		}
		r.eng = eng
	} else if err := r.eng.Reset(cfg, prof, key); err != nil {
		return nil, err
	}
	r.ops.Reset()
	for _, op := range ops {
		r.ops.Append(op)
	}
	r.shadow.reset(ops)
	mask := make([]bool, crashpoint.NumKinds())
	for i := range mask {
		mask[i] = true
	}
	return &Injector{
		eng:      r.eng,
		cfg:      cfg,
		key:      append([]byte(nil), key...),
		src:      trace.NewBatchCursor(&r.ops),
		shadow:   &r.shadow,
		triggers: triggers,
		handle:   h,
		mask:     mask,
		perKind:  make([]uint64, crashpoint.NumKinds()),
		snap:     r.snap,
	}, nil
}

// setKinds restricts the injector to the given crash-point kinds; other
// firings are invisible (not counted, never triggered). Empty = all.
func (in *Injector) setKinds(kinds []crashpoint.Kind) {
	if len(kinds) == 0 {
		return
	}
	for i := range in.mask {
		in.mask[i] = false
	}
	for _, k := range kinds {
		in.mask[k] = true
	}
}

// CrashPoint implements crashpoint.Sink.
func (in *Injector) CrashPoint(k crashpoint.Kind, _ addr.Block) {
	if !in.mask[k] {
		return
	}
	i := in.points
	in.points++
	in.perKind[k]++
	if in.err != nil || in.cursor >= len(in.triggers) || in.triggers[in.cursor] != i {
		return
	}
	in.cursor++
	snap := in.capture(k, i)
	if in.handle != nil {
		if err := in.handle(snap, in.shadow.view()); err != nil {
			in.err = err // first harness error wins; later triggers are skipped
		}
	}
}

// capture freezes the crash-surviving state at the instant the hook
// fired. The committed-store count is the SecPB's accepted-store stat:
// acceptance is the point of persistency, and the stat is bumped only
// after the entry's data is in battery-backed storage, so it is exact at
// every hook site regardless of which micro-op (backflow drain,
// watermark drain, sweep) the point interrupts. The previous capture's
// stores and entry slice, however its handler left them, are the copy
// destinations.
func (in *Injector) capture(k crashpoint.Kind, i uint64) *Snapshot {
	spb := in.eng.SecPB()
	mc := in.eng.Controller()
	stores, _ := spb.Stats()
	committed := int(stores)
	in.shadow.advanceTo(committed)
	snap := in.snap
	*snap = Snapshot{
		Kind:       k,
		PointIndex: i,
		OpIndex:    in.eng.OpIndex(),
		Cycle:      in.eng.Now(),
		Committed:  committed,
		InFlight:   spb.InFlightDrain() != nil,
		cfg:        in.cfg,
		key:        in.key,
		pm:         mc.PM().SnapshotInto(snap.pm),
		ctrs:       mc.Counters().SnapshotInto(snap.ctrs),
		macs:       mc.MACs().SnapshotInto(snap.macs),
		tree:       mc.Tree().SnapshotInto(snap.tree),
		entries:    spb.AppendEntries(snap.entries[:0]),
		rec:        snap.rec,
	}
	return snap
}

// Run executes the trace to completion, firing the sink at every
// instrumented point. It returns the first harness error (engine
// failure, recovery machinery breakage) — differential verification
// failures are the handler's to accumulate, not errors here.
func (in *Injector) Run() error {
	in.eng.SetCrashSink(in)
	defer in.eng.SetCrashSink(nil)
	if err := in.eng.RunBatch(in.src); err != nil {
		return fmt.Errorf("crashsim: engine run: %w", err)
	}
	if in.err != nil {
		return in.err
	}
	if in.cursor != len(in.triggers) {
		return fmt.Errorf("crashsim: run fired %d points but %d of %d triggers never matched (nondeterministic point stream?)",
			in.points, len(in.triggers)-in.cursor, len(in.triggers))
	}
	return nil
}

// Points returns the total number of crash points the run fired and the
// per-kind breakdown (indexed by crashpoint.Kind).
func (in *Injector) Points() (total uint64, perKind []uint64) {
	return in.points, in.perKind
}
