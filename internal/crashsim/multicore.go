package crashsim

import (
	"fmt"
	"sort"

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
	"secpb/internal/xrand"
)

// shardState is one memory-channel shard's crash image: the persisted
// NV stores plus the battery-backed SecPB entries that drain into it.
type shardState struct {
	cfg     config.Config
	pm      *nvm.PM
	ctrs    *meta.CounterStore
	macs    *meta.MACStore
	tree    *bmt.Tree
	entries []core.Entry
}

func captureShard(cfg config.Config, mc *nvm.Controller, entries []core.Entry) shardState {
	return shardState{
		cfg:     cfg,
		pm:      mc.PM().Snapshot(),
		ctrs:    mc.Counters().Snapshot(),
		macs:    mc.MACs().Snapshot(),
		tree:    mc.Tree().Snapshot(),
		entries: entries,
	}
}

// SystemSnapshot is everything that survives a power failure of an
// N-core socket: each core's private memory-channel shard with its
// SecPB entries, the shared coherent region's shard, and each core's
// shared-region SecPB entries. The committed-store counts (the
// acceptance stats at the instant of the crash) gate the golden model.
type SystemSnapshot struct {
	Kind       crashpoint.Kind
	PointIndex uint64

	// Committed[c] is core c's private stores past the point of
	// persistency; SharedCommitted[c] its shared-region stores accepted
	// at barriers.
	Committed       []int
	SharedCommitted []int

	key           []byte
	priv          []shardState
	shared        shardState
	sharedEntries [][]core.Entry // per core, FIFO order
}

// NumEntries returns the total battery-backed entries across all
// buffers — the late work a whole-socket recovery must fund.
func (s *SystemSnapshot) NumEntries() int {
	n := len(s.shared.entries)
	for _, p := range s.priv {
		n += len(p.entries)
	}
	for _, e := range s.sharedEntries {
		n += len(e)
	}
	return n
}

// parts assembles the canonical cross-core drain order over freshly
// restored controllers: ascending core id over the private shards, then
// ascending core id over the shared-region buffers (all draining into
// one restored shared controller). It returns the parts plus the
// restored controllers for verification.
func (s *SystemSnapshot) parts() ([]recovery.CoreEntries, []*nvm.Controller, *nvm.Controller, error) {
	var parts []recovery.CoreEntries
	var privMCs []*nvm.Controller
	for c, sh := range s.priv {
		mc, err := nvm.Restore(sh.cfg, s.key, sh.pm, sh.ctrs, sh.macs, sh.tree)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("crashsim: restore core %d shard: %w", c, err)
		}
		privMCs = append(privMCs, mc)
		parts = append(parts, recovery.CoreEntries{Core: c, MC: mc, Entries: sh.entries})
	}
	sharedMC, err := nvm.Restore(s.shared.cfg, s.key, s.shared.pm, s.shared.ctrs, s.shared.macs, s.shared.tree)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("crashsim: restore shared shard: %w", err)
	}
	for c, entries := range s.sharedEntries {
		parts = append(parts, recovery.CoreEntries{Core: c, MC: sharedMC, Entries: entries})
	}
	return parts, privMCs, sharedMC, nil
}

// RecoverVerify replays the whole-socket late work in the canonical
// sealed order and differentially verifies every shard: each private
// memory-channel shard against its core's committed-prefix golden, the
// shared region against the epoch-merge golden. The four per-shard
// checks are the single-core RecoverVerify's (audit, block-set
// equality, plaintext, tuple derivability).
func (s *SystemSnapshot) RecoverVerify(g *SystemGolden) (VerifyResult, error) {
	return s.recoverVerifyOrder(g.Priv, g.Shared, nil)
}

// RecoverVerifyPermuted is the order negative control: the parts replay
// in the given non-canonical order, which the sealed system journal
// must reject — the rejection lands as a verification failure, so a
// matrix run that somehow tolerates out-of-order cross-core replay
// shows up as a clean cell where a failure was demanded.
func (s *SystemSnapshot) RecoverVerifyPermuted(g *SystemGolden, order []int) (VerifyResult, error) {
	return s.recoverVerifyOrder(g.Priv, g.Shared, order)
}

// RecoverVerifyAgainst verifies against caller-supplied goldens (the
// semantic negative control hands in an image built with a permuted
// epoch-merge order).
func (s *SystemSnapshot) RecoverVerifyAgainst(priv []map[addr.Block][addr.BlockBytes]byte, shared map[addr.Block][addr.BlockBytes]byte) (VerifyResult, error) {
	return s.recoverVerifyOrder(priv, shared, nil)
}

func (s *SystemSnapshot) recoverVerifyOrder(priv []map[addr.Block][addr.BlockBytes]byte, shared map[addr.Block][addr.BlockBytes]byte, order []int) (VerifyResult, error) {
	var res VerifyResult
	parts, privMCs, sharedMC, err := s.parts()
	if err != nil {
		return res, err
	}
	res.EntriesDrained = s.NumEntries()
	if _, err := recovery.DrainSystemEntries(parts, order); err != nil {
		// An out-of-order replay (journal rejection) or a drain that
		// cannot complete is a correctness finding, not a harness bug.
		res.fail(fmt.Sprintf("cross-core late work failed: %v", err))
		return res, nil
	}
	var v verifier
	for c, mc := range privMCs {
		var shardRes VerifyResult
		if err := v.verifyImage(mc, priv[c], &shardRes); err != nil {
			return res, fmt.Errorf("crashsim: core %d shard: %w", c, err)
		}
		res.BlocksChecked += shardRes.BlocksChecked
		res.Failures += shardRes.Failures
		if res.FirstBad == "" && shardRes.FirstBad != "" {
			res.FirstBad = fmt.Sprintf("core %d: %s", c, shardRes.FirstBad)
		}
	}
	var sharedRes VerifyResult
	if err := v.verifyImage(sharedMC, shared, &sharedRes); err != nil {
		return res, fmt.Errorf("crashsim: shared shard: %w", err)
	}
	res.BlocksChecked += sharedRes.BlocksChecked
	res.Failures += sharedRes.Failures
	if res.FirstBad == "" && sharedRes.FirstBad != "" {
		res.FirstBad = "shared: " + sharedRes.FirstBad
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

func applyStore(mem map[addr.Block][addr.BlockBytes]byte, op trace.Op) {
	block := addr.BlockOf(op.Addr)
	blk := mem[block]
	off := int(op.Addr - block.Addr())
	for i := 0; i < int(op.Size); i++ {
		blk[off+i] = byte(op.Data >> (8 * i))
	}
	mem[block] = blk
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
// point. Maps are live shadow state: consume synchronously.
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
// golden image.
type SystemHandler func(snap *SystemSnapshot, golden *SystemGolden) error

// systemInjector drives one multi-core run and crashes it at chosen
// points. The crash sink forces serial core stepping, so the global
// point stream is deterministic: core 0's epoch, core 1's, ..., then
// the barrier replay in canonical order.
type systemInjector struct {
	sys      *engine.System
	key      []byte
	shadow   *systemShadow
	triggers []uint64
	cursor   int
	handle   SystemHandler
	mask     []bool

	points  uint64
	perKind []uint64
	err     error
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
	mask := make([]bool, crashpoint.NumKinds())
	for i := range mask {
		mask[i] = true
	}
	return &systemInjector{
		sys:      sys,
		key:      append([]byte(nil), key...),
		shadow:   newSystemShadow(sys.Plan(), perCore),
		triggers: triggers,
		handle:   h,
		mask:     mask,
		perKind:  make([]uint64, crashpoint.NumKinds()),
	}, nil
}

func (in *systemInjector) setKinds(kinds []crashpoint.Kind) {
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
func (in *systemInjector) CrashPoint(k crashpoint.Kind, _ addr.Block) {
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
	snap, golden := in.capture(k, i)
	if in.handle != nil {
		if err := in.handle(snap, golden); err != nil {
			in.err = err
		}
	}
}

// capture freezes the whole socket: every shard's NV image, every
// battery-backed buffer, and the per-buffer acceptance stats that gate
// the goldens.
func (in *systemInjector) capture(k crashpoint.Kind, i uint64) (*SystemSnapshot, *SystemGolden) {
	n := in.sys.Cores()
	snap := &SystemSnapshot{Kind: k, PointIndex: i, key: in.key}
	for c := 0; c < n; c++ {
		eng := in.sys.Core(c)
		spb := eng.SecPB()
		stores, _ := spb.Stats()
		snap.Committed = append(snap.Committed, int(stores))
		snap.priv = append(snap.priv, captureShard(eng.Controller().Config(), eng.Controller(), spb.AppendEntries(nil)))
	}
	sharedMC := in.sys.Shared().Controller()
	for c := 0; c < n; c++ {
		spb := in.sys.Shared().SecPB(c)
		stores, _ := spb.Stats()
		snap.SharedCommitted = append(snap.SharedCommitted, int(stores))
		snap.sharedEntries = append(snap.sharedEntries, spb.AppendEntries(nil))
	}
	snap.shared = captureShard(sharedMC.Config(), sharedMC, nil)

	in.shadow.advance(snap.Committed, snap.SharedCommitted)
	golden := &SystemGolden{
		Shared:          in.shadow.sharedMem,
		shadow:          in.shadow,
		sharedCommitted: append([]int(nil), snap.SharedCommitted...),
	}
	for c := 0; c < n; c++ {
		golden.Priv = append(golden.Priv, in.shadow.priv[c].view())
	}
	return snap, golden
}

// Run executes every core's trace to completion, firing the sink at
// every instrumented point across all shards.
func (in *systemInjector) Run() error {
	in.sys.SetCrashSink(in)
	if err := in.sys.Run(); err != nil {
		return fmt.Errorf("crashsim: system run: %w", err)
	}
	if in.err != nil {
		return in.err
	}
	if in.cursor != len(in.triggers) {
		return fmt.Errorf("crashsim: system run fired %d points but %d of %d triggers never matched (nondeterministic point stream?)",
			in.points, len(in.triggers)-in.cursor, len(in.triggers))
	}
	return nil
}

func (in *systemInjector) Points() (uint64, []uint64) { return in.points, in.perKind }

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
	cell := SystemCellResult{
		Scheme: cfg.Scheme.String(), Workload: prof.Name,
		Cores: cfg.EffectiveCores(), OpsPerCore: 0, Seed: cfg.Seed,
	}
	if len(perCore) > 0 {
		cell.OpsPerCore = len(perCore[0])
	}
	count, err := newSystemInjector(cfg, prof, key, perCore, nil, nil)
	if err != nil {
		return cell, err
	}
	count.setKinds(topt.Kinds)
	if err := count.Run(); err != nil {
		return cell, err
	}
	total, perKind := count.Points()
	cell.TotalPoints = total
	cell.ByKind = make(map[string]uint64, crashpoint.NumKinds())
	for _, k := range crashpoint.Kinds() {
		if n := perKind[k]; n > 0 {
			cell.ByKind[k.String()] = n
		}
	}
	if total == 0 {
		return cell, fmt.Errorf("crashsim: %s/%s cores=%d fired no crash points", cfg.Scheme, prof.Name, cell.Cores)
	}

	triggers := chooseTriggers(total, topt.Points, topt.Seed)
	inj, err := newSystemInjector(cfg, prof, key, perCore, triggers, func(snap *SystemSnapshot, golden *SystemGolden) error {
		cell.Injected++
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
	})
	if err != nil {
		return cell, err
	}
	inj.setKinds(topt.Kinds)
	if err := inj.Run(); err != nil {
		return cell, err
	}
	return cell, nil
}

// InjectSystemTraceWith is InjectSystemTrace with a custom handler (the
// negative controls choose their own verification); only Injected is
// maintained for custom handlers.
func InjectSystemTraceWith(cfg config.Config, prof workload.Profile, key []byte, perCore [][]trace.Op, topt TraceOptions, h SystemHandler) (SystemCellResult, error) {
	cell := SystemCellResult{
		Scheme: cfg.Scheme.String(), Workload: prof.Name,
		Cores: cfg.EffectiveCores(), Seed: cfg.Seed,
	}
	if len(perCore) > 0 {
		cell.OpsPerCore = len(perCore[0])
	}
	count, err := newSystemInjector(cfg, prof, key, perCore, nil, nil)
	if err != nil {
		return cell, err
	}
	count.setKinds(topt.Kinds)
	if err := count.Run(); err != nil {
		return cell, err
	}
	total, _ := count.Points()
	cell.TotalPoints = total
	if total == 0 {
		return cell, fmt.Errorf("crashsim: %s/%s cores=%d fired no crash points", cfg.Scheme, prof.Name, cell.Cores)
	}
	triggers := chooseTriggers(total, topt.Points, topt.Seed)
	inj, err := newSystemInjector(cfg, prof, key, perCore, triggers, func(snap *SystemSnapshot, golden *SystemGolden) error {
		cell.Injected++
		return h(snap, golden)
	})
	if err != nil {
		return cell, err
	}
	inj.setKinds(topt.Kinds)
	if err := inj.Run(); err != nil {
		return cell, err
	}
	return cell, nil
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
