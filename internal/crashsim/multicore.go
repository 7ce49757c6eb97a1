package crashsim

import (
	"fmt"
	"sort"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/crashpoint"
	"secpb/internal/engine"
	"secpb/internal/recovery"
	"secpb/internal/trace"
	"secpb/internal/workload"
	"secpb/internal/xrand"
)

// SystemSnapshot is everything that survives a power failure of an
// N-core socket: each core's private memory-channel shard with its
// SecPB's journal, the shared coherent region's shard, and the journal
// of each core's shared-region SecPB. Each shard is a Snapshot,
// captured and rebooted exactly as a single-core one, and like one the
// whole SystemSnapshot is recycled into the next capture once the
// handler that receives it returns. The committed-store counts (the
// acceptance stats at the instant of the crash) gate the golden model.
type SystemSnapshot struct {
	Kind       crashpoint.Kind
	PointIndex uint64

	// Committed[c] is core c's private stores past the point of
	// persistency; SharedCommitted[c] its shared-region stores accepted
	// at barriers.
	Committed       []int
	SharedCommitted []int

	priv           []*Snapshot            // per core: private shard and SecPB journal
	shared         *Snapshot              // the shared region's NV image; no journal
	sharedJournals []recovery.Journal     // per core: the shared-region SecPB
	journal        recovery.SystemJournal // the drain order, sealed at recovery
}

// NumEntries returns the total battery-backed entries across all
// buffers — the late work a whole-socket recovery must fund.
func (s *SystemSnapshot) NumEntries() int {
	n := 0
	for c, p := range s.priv {
		n += p.NumEntries() + s.sharedJournals[c].Len()
	}
	return n
}

// RecoverVerify replays the whole-socket late work in the canonical
// sealed order and differentially verifies every shard: each private
// memory-channel shard against its core's committed-prefix golden, the
// shared region against the epoch-merge golden. Each shard gets the
// single-core RecoverVerify's four checks (recovery.Verifier.Verify).
func (s *SystemSnapshot) RecoverVerify(g *SystemGolden) (recovery.Report, error) {
	return s.recoverVerifyOrder(g.Priv, g.Shared, nil)
}

// RecoverVerifyPermuted is the order negative control: the parts replay
// in the given non-canonical order, which the sealed system journal
// must reject — the rejection lands as a verification failure, so a
// matrix run that somehow tolerates out-of-order cross-core replay
// shows up as a clean cell where a failure was demanded.
func (s *SystemSnapshot) RecoverVerifyPermuted(g *SystemGolden, order []int) (recovery.Report, error) {
	return s.recoverVerifyOrder(g.Priv, g.Shared, order)
}

// RecoverVerifyAgainst verifies against caller-supplied goldens (the
// semantic negative control hands in an image built with a permuted
// epoch-merge order).
func (s *SystemSnapshot) RecoverVerifyAgainst(priv []map[addr.Block][addr.BlockBytes]byte, shared map[addr.Block][addr.BlockBytes]byte) (recovery.Report, error) {
	return s.recoverVerifyOrder(priv, shared, nil)
}

// recoverVerifyOrder boots every shard's recovery controller on its
// image, then replays the parts in the given order (nil = canonical:
// ascending core id over the private shards, then ascending core id
// over the shared-region buffers, all draining into the one shared
// controller) and verifies each shard.
func (s *SystemSnapshot) recoverVerifyOrder(priv []map[addr.Block][addr.BlockBytes]byte, shared map[addr.Block][addr.BlockBytes]byte, order []int) (recovery.Report, error) {
	var res recovery.Report
	s.journal.Reset()
	for c, p := range s.priv {
		mc, err := p.boot(p.pm, p.ctrs, p.macs, p.tree)
		if err != nil {
			return res, fmt.Errorf("crashsim: restore core %d shard: %w", c, err)
		}
		s.journal.Add(c, mc, &p.journal)
	}
	sharedMC, err := s.shared.boot(s.shared.pm, s.shared.ctrs, s.shared.macs, s.shared.tree)
	if err != nil {
		return res, fmt.Errorf("crashsim: restore shared shard: %w", err)
	}
	for c := range s.sharedJournals {
		s.journal.Add(c, sharedMC, &s.sharedJournals[c])
	}
	res.EntriesDrained = s.NumEntries()
	if _, err := s.journal.Drain(order); err != nil {
		// An out-of-order replay (journal rejection) or a drain that
		// cannot complete is a correctness finding, not a harness bug.
		res.Fail(fmt.Sprintf("cross-core late work failed: %v", err))
		return res, nil
	}
	// Each private shard, then the shared region, is checked on its own
	// controller; the report names the shard of the first finding.
	for c := 0; c <= len(s.priv); c++ {
		shard, golden, name := s.shared, shared, "shared"
		if c < len(s.priv) {
			shard, golden, name = s.priv[c], priv[c], fmt.Sprintf("core %d", c)
		}
		var part recovery.Report
		if err := shard.rec.Verify(shard.rec.mc, golden, &part); err != nil {
			return res, fmt.Errorf("crashsim: %s shard: %w", name, err)
		}
		res.BlocksChecked += part.BlocksChecked
		res.Failures += part.Failures
		if res.FirstBad == "" && part.FirstBad != "" {
			res.FirstBad = name + ": " + part.FirstBad
		}
	}
	return res, nil
}

// sharedStoreRec is one shared-region store in the global epoch-merge
// order: within an epoch, cores replay ascending at the barrier, each
// in program order.
type sharedStoreRec struct {
	epoch   int
	core    int
	pos     int // op index within the core's stream
	ordinal int // ordinal among the core's shared stores (gates commitment)
	op      trace.Op
}

// systemShadow is the multi-core golden model: one committed-prefix
// shadow per private stream plus the shared region's store sequence in
// global merge order, gated by per-core barrier-acceptance counts.
type systemShadow struct {
	priv      []*shadow
	sharedSeq []sharedStoreRec
	sharedMem map[addr.Block][addr.BlockBytes]byte
	applied   int
}

// newSystemShadow classifies each core's ops with the system's own
// rewrite plan (private vs shared, and the rewritten shared addresses),
// then sorts the shared stores into the canonical merge order.
func newSystemShadow(plan engine.SharedPlan, perCore [][]trace.Op) *systemShadow {
	s := &systemShadow{sharedMem: make(map[addr.Block][addr.BlockBytes]byte)}
	for c, ops := range perCore {
		var privOps []trace.Op
		ordinal := 0
		for i, op := range ops {
			rop, shared := plan.Rewrite(c, i, op)
			if !shared {
				privOps = append(privOps, rop)
				continue
			}
			if rop.Kind == trace.Store {
				s.sharedSeq = append(s.sharedSeq, sharedStoreRec{
					epoch: plan.Epoch(i), core: c, pos: i, ordinal: ordinal, op: rop,
				})
				ordinal++
			}
		}
		s.priv = append(s.priv, newShadow(privOps))
	}
	sort.Slice(s.sharedSeq, func(i, j int) bool {
		a, b := s.sharedSeq[i], s.sharedSeq[j]
		if a.epoch != b.epoch {
			return a.epoch < b.epoch
		}
		if a.core != b.core {
			return a.core < b.core
		}
		return a.pos < b.pos
	})
	return s
}

// advance catches the goldens up to the snapshot's committed counts.
// Barrier replay follows exactly the merge order, so the committed set
// is always a prefix of sharedSeq; advancing while the next record's
// per-core ordinal is under that core's accepted count is exact.
func (s *systemShadow) advance(committed, sharedCommitted []int) {
	for c, k := range committed {
		s.priv[c].advanceTo(k)
	}
	for s.applied < len(s.sharedSeq) {
		rec := s.sharedSeq[s.applied]
		if rec.ordinal >= sharedCommitted[rec.core] {
			break
		}
		applyStore(s.sharedMem, rec.op)
		s.applied++
	}
}

// SystemGolden is the committed-prefix plaintext image at one crash
// point. Maps are live shadow state and the golden is recycled into the
// next capture: consume synchronously.
type SystemGolden struct {
	Priv   []map[addr.Block][addr.BlockBytes]byte
	Shared map[addr.Block][addr.BlockBytes]byte

	shadow          *systemShadow
	sharedCommitted []int
}

// SharedPermutedMerge rebuilds the shared golden with the epoch-merge
// order reversed (descending core within each epoch) over the same
// committed store set. Where two cores wrote the same block in one
// epoch, the last writer differs — the semantic negative control: a
// verifier given this image MUST report plaintext mismatches, proving
// the matrix actually pins the cross-core merge order.
func (g *SystemGolden) SharedPermutedMerge() map[addr.Block][addr.BlockBytes]byte {
	seq := append([]sharedStoreRec(nil), g.shadow.sharedSeq...)
	sort.Slice(seq, func(i, j int) bool {
		a, b := seq[i], seq[j]
		if a.epoch != b.epoch {
			return a.epoch < b.epoch
		}
		if a.core != b.core {
			return a.core > b.core // reversed
		}
		return a.pos < b.pos
	})
	mem := make(map[addr.Block][addr.BlockBytes]byte)
	for _, rec := range seq {
		if rec.ordinal < g.sharedCommitted[rec.core] {
			applyStore(mem, rec.op)
		}
	}
	return mem
}

// SystemHandler receives each captured whole-socket snapshot with its
// golden image. Like a Handler's, both are valid only during the call.
type SystemHandler func(snap *SystemSnapshot, golden *SystemGolden) error

// systemInjector drives one multi-core run and crashes it at chosen
// points. The crash sink forces serial core stepping, so the global
// point stream is deterministic: core 0's epoch, core 1's, ..., then
// the barrier replay in canonical order.
type systemInjector struct {
	pointSink
	sys    *engine.System
	shadow *systemShadow
	handle SystemHandler
	// snap and golden are handed to the handler and recaptured in place
	// at every trigger.
	snap   SystemSnapshot
	golden SystemGolden
}

func newSystemInjector(cfg config.Config, prof workload.Profile, key []byte, perCore [][]trace.Op, triggers []uint64, h SystemHandler) (*systemInjector, error) {
	srcs := make([]trace.BatchSource, len(perCore))
	for c, ops := range perCore {
		srcs[c] = trace.NewSliceBatchSource(ops)
	}
	sys, err := engine.NewSystemSources(cfg, prof, key, srcs)
	if err != nil {
		return nil, err
	}
	n := sys.Cores()
	key = append([]byte(nil), key...)
	in := &systemInjector{sys: sys, shadow: newSystemShadow(sys.Plan(), perCore), handle: h}
	in.pointSink = newPointSink(triggers, in.crash)
	in.snap = SystemSnapshot{
		Committed:       make([]int, n),
		SharedCommitted: make([]int, n),
		shared:          &Snapshot{cfg: sys.Shared().Controller().Config(), key: key, rec: new(recoverer)},
		sharedJournals:  make([]recovery.Journal, n),
	}
	in.golden = SystemGolden{Shared: in.shadow.sharedMem, shadow: in.shadow, sharedCommitted: in.snap.SharedCommitted}
	for c := 0; c < n; c++ {
		in.snap.priv = append(in.snap.priv, &Snapshot{cfg: sys.Core(c).Controller().Config(), key: key, rec: new(recoverer)})
		in.golden.Priv = append(in.golden.Priv, in.shadow.priv[c].view())
	}
	return in, nil
}

// crash freezes the whole socket — every shard's NV image, every
// battery-backed buffer, and the per-buffer acceptance stats that gate
// the goldens — and hands it to the handler with the goldens.
func (in *systemInjector) crash(k crashpoint.Kind, i uint64) error {
	s := &in.snap
	s.Kind, s.PointIndex = k, i
	shared := in.sys.Shared()
	for c, p := range s.priv {
		eng := in.sys.Core(c)
		p.capture(k, i, eng.Controller(), eng.SecPB())
		s.Committed[c] = p.Committed
		spb := shared.SecPB(c)
		stores, _ := spb.Stats()
		s.SharedCommitted[c] = int(stores)
		s.sharedJournals[c].Capture(spb)
	}
	s.shared.capture(k, i, shared.Controller(), nil)
	in.shadow.advance(s.Committed, s.SharedCommitted)
	return in.handle(s, &in.golden)
}

// Run executes every core's trace to completion, firing the sink at
// every instrumented point across all shards.
func (in *systemInjector) Run() error {
	in.sys.SetCrashSink(in)
	if err := in.sys.Run(); err != nil {
		return fmt.Errorf("crashsim: system run: %w", err)
	}
	return in.done()
}

// SystemCellResult is the crash-matrix outcome for one multi-core cell.
type SystemCellResult struct {
	Scheme      string            `json:"scheme"`
	Workload    string            `json:"workload"`
	Cores       int               `json:"cores"`
	OpsPerCore  int               `json:"ops_per_core"`
	Seed        uint64            `json:"seed"`
	TotalPoints uint64            `json:"total_points"`
	ByKind      map[string]uint64 `json:"points_by_kind"`
	Injected    int               `json:"injected"`
	Drained     int               `json:"entries_drained"`
	Checked     int               `json:"blocks_checked"`
	Failures    int               `json:"failures"`
	FirstBad    string            `json:"first_bad,omitempty"`
}

// InjectSystemTrace crash-tests a multi-core socket over prepared
// per-core op slices: a first pass counts the run's crash points across
// every shard, a trigger set is drawn, and a second identical run
// (serial stepping under the sink keeps the point stream deterministic)
// crashes, recovers in the sealed canonical order, and verifies every
// shard at each trigger.
func InjectSystemTrace(cfg config.Config, prof workload.Profile, key []byte, perCore [][]trace.Op, topt TraceOptions) (SystemCellResult, error) {
	return InjectSystemTraceWith(cfg, prof, key, perCore, topt, nil)
}

// InjectSystemTraceWith is InjectSystemTrace with a custom handler (the
// negative controls choose their own verification); a nil h uses the
// standard RecoverVerify. Only Injected is maintained for custom
// handlers.
func InjectSystemTraceWith(cfg config.Config, prof workload.Profile, key []byte, perCore [][]trace.Op, topt TraceOptions, h SystemHandler) (SystemCellResult, error) {
	cell := SystemCellResult{
		Scheme: cfg.Scheme.String(), Workload: prof.Name,
		Cores: cfg.EffectiveCores(), Seed: cfg.Seed,
	}
	if len(perCore) > 0 {
		cell.OpsPerCore = len(perCore[0])
	}
	handle := func(snap *SystemSnapshot, golden *SystemGolden) error {
		cell.Injected++
		if h != nil {
			return h(snap, golden)
		}
		res, err := snap.RecoverVerify(golden)
		if err != nil {
			return err
		}
		cell.Drained += res.EntriesDrained
		cell.Checked += res.BlocksChecked
		if res.Failures > 0 {
			cell.Failures += res.Failures
			if cell.FirstBad == "" {
				cell.FirstBad = fmt.Sprintf("%s point %d: %s", snap.Kind, snap.PointIndex, res.FirstBad)
			}
		}
		return nil
	}
	var err error
	cell.TotalPoints, cell.ByKind, err = twoPass(topt, fmt.Sprintf("%s/%s cores=%d", cfg.Scheme, prof.Name, cell.Cores),
		func(triggers []uint64) (crashRun, error) {
			return newSystemInjector(cfg, prof, key, perCore, triggers, handle)
		})
	return cell, err
}

// SystemTrace materializes the per-core op slices a multi-core cell
// runs: core c's stream is generated from CoreSeed(cfg.Seed, c),
// exactly as engine.NewSystem does internally.
func SystemTrace(cfg config.Config, prof workload.Profile, opsPerCore int) ([][]trace.Op, error) {
	n := cfg.EffectiveCores()
	perCore := make([][]trace.Op, n)
	for c := 0; c < n; c++ {
		ops, err := workload.Generate(prof, engine.CoreSeed(cfg.Seed, c), opsPerCore)
		if err != nil {
			return nil, err
		}
		perCore[c] = ops
	}
	return perCore, nil
}

// RunSystemCell explores one scheme × workload multi-core cell with
// derived seeds, exhaustively when opts.Points <= 0.
func RunSystemCell(scheme config.Scheme, wl string, cores int, opts Options) (SystemCellResult, error) {
	opts = opts.withDefaults()
	prof, err := workload.ByName(wl)
	if err != nil {
		return SystemCellResult{Scheme: scheme.String(), Workload: wl, Cores: cores}, err
	}
	seed := xrand.CellSeed(opts.Seed, scheme.String(), wl) ^ uint64(cores)<<48
	cfg := cellConfig(opts, scheme, seed).WithCores(cores)
	perCore, err := SystemTrace(cfg, prof, opts.Ops)
	if err != nil {
		return SystemCellResult{Scheme: scheme.String(), Workload: wl, Cores: cores}, err
	}
	return InjectSystemTrace(cfg, prof, opts.Key, perCore, TraceOptions{Points: opts.Points, Seed: seed ^ 0xC0FFEE})
}
