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
	"secpb/internal/recovery"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// Snapshot is everything that survives a power failure at one crash
// point: the persisted NV image (PM blocks, counter store, MAC store,
// BMT plus its NV root register) and the battery-backed domain: the
// SecPB's late-work journal, which holds its entries, an interrupted
// in-flight drain included (it models the memory-controller latches the
// battery also sustains), sealed at the crash. Volatile state —
// metadata caches, clocks, the core's program view — is deliberately
// absent. A Snapshot is single-use: RecoverVerify mutates the captured
// image while draining. It is also valid only for the duration of the
// Handler call that receives it: once the handler returns, the injector
// recycles the snapshot and its stores (PM image, counter and MAC
// stores, tree, journal) as the destination of the next capture, so
// that each capture copies only the present data into storage it
// already owns. The controller its recovery booted is recycled with it
// and rebooted onto the next capture.
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
	journal recovery.Journal
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
func (s *Snapshot) NumEntries() int { return s.journal.Len() }

// Injector drives one simulated run and crashes it at chosen points.
// Its pointSink counts every hook firing, and the firings whose ordinal
// matches the sorted trigger list are captured, recovered and verified
// in place. Capturing in place (rather than halting and replaying) is
// equivalent to a real crash — recovery operates on copies of exactly
// the state a power failure would leave — and lets one pass service
// thousands of crash points with one snapshot alive, whose stores every
// capture after the first reuses.
type Injector struct {
	pointSink
	eng    *engine.Engine
	src    *trace.SliceBatchSource
	shadow *shadow
	handle Handler
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
	r.snap.cfg, r.snap.key = cfg, append([]byte(nil), key...)
	in := &Injector{eng: r.eng, src: trace.NewBatchCursor(&r.ops), shadow: &r.shadow, handle: h, snap: r.snap}
	in.pointSink = newPointSink(triggers, in.crash)
	return in, nil
}

// pointSink is the crash-point bookkeeping both injectors embed. It
// implements crashpoint.Sink: every firing of an enabled kind is
// counted, and a firing whose ordinal matches the next sorted trigger
// is handed to crash, which captures, recovers and verifies in place.
type pointSink struct {
	mask     []bool   // per-kind enable; points of masked-out kinds are not counted
	triggers []uint64 // sorted ascending, distinct
	cursor   int
	points   uint64
	perKind  []uint64 // indexed by crashpoint.Kind
	err      error
	crash    func(k crashpoint.Kind, i uint64) error
}

func newPointSink(triggers []uint64, crash func(crashpoint.Kind, uint64) error) pointSink {
	mask := make([]bool, crashpoint.NumKinds())
	for i := range mask {
		mask[i] = true
	}
	return pointSink{mask: mask, triggers: triggers, perKind: make([]uint64, crashpoint.NumKinds()), crash: crash}
}

// setKinds restricts the sink to the given crash-point kinds; other
// firings are invisible (not counted, never triggered). Empty = all.
func (p *pointSink) setKinds(kinds []crashpoint.Kind) {
	if len(kinds) == 0 {
		return
	}
	for i := range p.mask {
		p.mask[i] = false
	}
	for _, k := range kinds {
		p.mask[k] = true
	}
}

// CrashPoint implements crashpoint.Sink.
func (p *pointSink) CrashPoint(k crashpoint.Kind, _ addr.Block) {
	if !p.mask[k] {
		return
	}
	i := p.points
	p.points++
	p.perKind[k]++
	if p.err != nil || p.cursor >= len(p.triggers) || p.triggers[p.cursor] != i {
		return
	}
	p.cursor++
	p.err = p.crash(k, i) // first harness error wins; later triggers are skipped
}

// done is the end of a run: the first harness error crash returned, or
// an error if some trigger never matched a fired point.
func (p *pointSink) done() error {
	if p.err != nil {
		return p.err
	}
	if p.cursor != len(p.triggers) {
		return fmt.Errorf("crashsim: run fired %d points but %d of %d triggers never matched (nondeterministic point stream?)",
			p.points, len(p.triggers)-p.cursor, len(p.triggers))
	}
	return nil
}

// Points returns the total number of crash points the run fired and the
// per-kind breakdown (indexed by crashpoint.Kind).
func (p *pointSink) Points() (total uint64, perKind []uint64) {
	return p.points, p.perKind
}

// capture copies the crash-surviving state of one memory-channel shard
// into s's recycled stores: mc's persisted NV image and, unless spb is
// nil, spb's battery-backed entries (into the journal), accepted-store
// count and interrupted drain. The committed-store count is the SecPB's
// accepted-store stat: acceptance is the point of persistency, and the
// stat is bumped only after the entry's data is in battery-backed
// storage, so it is exact at every hook site regardless of which
// micro-op (backflow drain, watermark drain, sweep) the point
// interrupts. The previous capture's stores and journal, however its
// handler left them, are the copy destinations.
func (s *Snapshot) capture(k crashpoint.Kind, i uint64, mc *nvm.Controller, spb *core.SecPB) {
	s.Kind, s.PointIndex = k, i
	s.pm = mc.PM().SnapshotInto(s.pm)
	s.ctrs = mc.Counters().SnapshotInto(s.ctrs)
	s.macs = mc.MACs().SnapshotInto(s.macs)
	s.tree = mc.Tree().SnapshotInto(s.tree)
	s.Committed, s.InFlight = 0, false
	if spb != nil {
		stores, _ := spb.Stats()
		s.Committed = int(stores)
		s.InFlight = spb.InFlightDrain() != nil
		s.journal.Capture(spb)
	}
}

// crash freezes the engine's crash-surviving state at the instant the
// hook fired and hands it to the handler with the golden image of its
// committed prefix.
func (in *Injector) crash(k crashpoint.Kind, i uint64) error {
	snap := in.snap
	snap.capture(k, i, in.eng.Controller(), in.eng.SecPB())
	snap.OpIndex, snap.Cycle = in.eng.OpIndex(), in.eng.Now()
	in.shadow.advanceTo(snap.Committed)
	return in.handle(snap, in.shadow.view())
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
	return in.done()
}
