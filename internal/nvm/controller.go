package nvm

import (
	"fmt"

	"secpb/internal/addr"
	"secpb/internal/bmt"
	"secpb/internal/config"
	"secpb/internal/crashpoint"
	"secpb/internal/crypto"
	"secpb/internal/fault"
	"secpb/internal/mem"
	"secpb/internal/meta"
	"secpb/internal/ptable"
)

// Cost reports the micro-events one controller operation generated. The
// engine converts events into cycles; the energy model converts the same
// events into joules (Table III).
type Cost struct {
	CtrCacheHit   bool
	CtrFetchPM    bool // counter line fetched from PM
	AESOps        int  // OTP generations
	Hashes        int  // SHA-512 computations (MAC or BMT node)
	BMTLevels     int  // tree levels walked
	BMTNodeFetch  int  // BMT nodes fetched from PM (BMT cache misses)
	PMDataWrites  int  // 64B data writes to PM
	PMMetaWrites  int  // 64B metadata writes to PM
	PMReads       int  // 64B reads from PM
	PageReencrypt bool
}

// Add accumulates other into c.
func (c *Cost) Add(other Cost) {
	c.CtrCacheHit = c.CtrCacheHit || other.CtrCacheHit
	c.CtrFetchPM = c.CtrFetchPM || other.CtrFetchPM
	c.AESOps += other.AESOps
	c.Hashes += other.Hashes
	c.BMTLevels += other.BMTLevels
	c.BMTNodeFetch += other.BMTNodeFetch
	c.PMDataWrites += other.PMDataWrites
	c.PMMetaWrites += other.PMMetaWrites
	c.PMReads += other.PMReads
	c.PageReencrypt = c.PageReencrypt || other.PageReencrypt
}

// PreparedMeta carries memory-tuple elements a SecPB entry precomputed
// early (at store-persist time), so the drain path reuses them instead
// of recomputing. Architecturally these are the entry's O/Dc/C/M fields
// with their valid bits; the authoritative metadata stores in the MC are
// only updated when the entry drains.
type PreparedMeta struct {
	CounterDone bool   // counter incremented at allocation (C valid)
	Counter     uint64 // the new counter value assigned at allocation
	// CounterAdvance is how many increments the drain must apply to the
	// storage counter: 1 normally (one increment per dirty entry —
	// Section IV.A's coalescing), or the per-store count when the
	// coalescing optimization is disabled (ablation mode). Zero means 1.
	CounterAdvance int
	OTPDone        bool
	OTP            [addr.BlockBytes]byte
	CipherDone     bool
	Cipher         [addr.BlockBytes]byte
	MACDone        bool
	MAC            [crypto.MACSize]byte
	BMTDone        bool // BMT walk already charged at allocation
}

// Controller is the memory controller: the security point of persistency
// in baseline systems, and the tuple-completion point of SecPB drains.
// Its metadata stores always describe the ciphertext currently in PM, so
// integrity verification is meaningful at any instant.
type Controller struct {
	cfg    config.Config
	secure bool
	// key is the master key eng was derived from; Reset keeps the
	// engine only for an equal key.
	key string

	eng  *crypto.Engine
	ctrs *meta.CounterStore
	macs *meta.MACStore
	tree *bmt.Tree
	pm   *PM

	ctrCache *mem.Cache
	macCache *mem.Cache
	bmtCache *mem.Cache
	heights  *bmt.HeightModel
	wpq      *WPQ

	// onReencrypt hooks are invoked with the page number after a page
	// re-encryption so every SecPB can invalidate prepared metadata that
	// the counter reset made stale.
	onReencrypt []func(page uint64)

	// sink, when non-nil, receives crash-injection points from the drain
	// pipeline (WPQ flush, counter persist, sweep boundary). inReencrypt
	// suppresses points inside a page re-encryption: the operation's
	// plaintexts live only in MC latches, so it is modelled as atomic —
	// completed on battery like any in-flight MC operation.
	sink        crashpoint.Sink
	inReencrypt bool

	reencrypts uint64
	media      MediaStats // retry/remap/backoff counters (pmWriteFaulty)

	// Reusable scratch for the drain-path BMT walk and OTP generation;
	// the controller models one hardware unit and is not safe for
	// concurrent use, so one buffer of each suffices.
	lineBuf [meta.LineBytesLen]byte
	pathIDs []uint64
	otpBuf  [addr.BlockBytes]byte

	// Deferred drain-tuple materialization (see stageTuple/flushStaged):
	// staged tuples in insertion order, the block→slot index (slot+1;
	// zero means unstaged).
	staged          []stagedTuple
	stagedIx        *ptable.Table[int32]
	stagedFlushes   uint64
	stagedCoalesced uint64
}

// stagedTuple is one drain whose physical materialization is deferred:
// the PM cell is already allocated and all costs, caches and queues are
// charged, but the cell holds plaintext until flush derives the pad
// (needOTP) and the flush computes the MAC store's tag cell (needMAC).
type stagedTuple struct {
	block   addr.Block
	cell    *[addr.BlockBytes]byte
	ctr     uint64
	needOTP bool
	needMAC bool
}

// maxStagedTuples bounds the staged set; reaching the bound flushes
// before staging continues. Re-drains of an already-staged block
// coalesce into their slot, so the bound is on distinct dirty blocks.
const maxStagedTuples = 4096

// NewController builds the controller for the given configuration. The
// insecure BBB baseline (scheme bbb) stores plaintext and keeps no
// metadata. It is Reset on a zero Controller.
func NewController(cfg config.Config, key []byte) (*Controller, error) {
	c := new(Controller)
	if err := c.Reset(cfg, key); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset returns the controller to exactly the state NewController(cfg,
// key) returns. A secure controller whose configuration differs from
// cfg in at most the scheme and the seed, and whose key equals key,
// empties its stores (PM, counters, MACs, BMT levels) and volatile
// structures (metadata caches, WPQ, staging index) in place and keeps
// its crypto engine, with any memo detached; a controller Restore or
// Reboot booted onto adopted stores empties those. Any other controller
// — the zero one, an insecure one, or one of another shape or key — is
// rebuilt from scratch, and on error it is left as it was.
func (c *Controller) Reset(cfg config.Config, key []byte) error {
	if !c.secure || !cfg.Scheme.Secure() || !sameShape(c.cfg, cfg) || c.key != string(key) {
		return c.build(cfg, key)
	}
	c.cfg = cfg
	c.eng.SetMemo(nil)
	c.pm.Reset()
	c.ctrs.Reset()
	c.macs.Reset()
	c.tree.Reset()
	c.armFault()
	c.initVolatile()
	return nil
}

// sameShape reports whether two configurations differ in at most the
// scheme and the seed, the fields Reset may change in place: the scheme
// only selects the secure path (checked separately) and the seed only
// the fault injector's stream, which armFault re-derives.
func sameShape(a, b config.Config) bool {
	a.Scheme, a.Seed = b.Scheme, b.Seed
	return a == b
}

// build makes c a newly allocated controller for cfg and key; on error
// c is left as it was.
func (c *Controller) build(cfg config.Config, key []byte) error {
	fresh := Controller{
		cfg:    cfg,
		secure: cfg.Scheme.Secure(),
		key:    string(key),
		pm:     NewPM(cfg.PMSizeBytes),
	}
	if fresh.secure {
		eng, err := crypto.NewEngine(key)
		if err != nil {
			return err
		}
		if fresh.tree, err = bmt.New(eng, cfg.BMTLevels); err != nil {
			return err
		}
		fresh.eng = eng
		fresh.ctrs = meta.NewCounterStore()
		fresh.macs = meta.NewMACStore()
	}
	*c = fresh
	c.armFault()
	c.initVolatile()
	return nil
}

// armFault arms the PM device's media-fault injector when the config
// enables one. The seed defaults to a derivation of the workload seed so
// fault patterns vary with the experiment but stay reproducible.
func (c *Controller) armFault() {
	if !c.cfg.FaultEnabled() {
		return
	}
	seed := c.cfg.FaultSeed
	if seed == 0 {
		seed = c.cfg.Seed ^ 0xFA017B10C5
	}
	c.pm.SetFault(fault.New(fault.Config{
		Seed:          seed,
		WriteFailRate: c.cfg.FaultWriteFailRate,
		TornRate:      c.cfg.FaultTornRate,
		RotRate:       c.cfg.FaultRotRate,
	}))
}

// initVolatile brings the controller's volatile state to its cold
// power-on values: an empty WPQ, no staged tuples, no re-encryption
// hooks or crash sink, zeroed media and re-encryption counters, and
// empty metadata caches and BMF root cache. The first call allocates the
// structures; later calls (Reboot) reset them in place, which leaves
// each one observationally equal to a freshly allocated one.
func (c *Controller) initVolatile() {
	if c.wpq == nil {
		c.wpq = NewWPQ(c.cfg.WPQEntries)
	} else {
		c.wpq.Reset()
	}
	c.onReencrypt = nil
	c.sink = nil
	c.inReencrypt = false
	c.reencrypts = 0
	c.media = MediaStats{}
	if !c.secure {
		return
	}
	c.staged = c.staged[:0]
	c.stagedFlushes, c.stagedCoalesced = 0, 0
	if c.stagedIx == nil {
		c.stagedIx = ptable.New[int32]()
	} else {
		c.stagedIx.Reset()
	}
	if c.heights != nil {
		// A reboot: empty the caches in place. A unified metadata cache
		// is one structure behind all three fields; resetting it three
		// times is harmless.
		c.ctrCache.Reset()
		c.macCache.Reset()
		c.bmtCache.Reset()
		c.heights.Reset()
		return
	}
	cfg := c.cfg
	if cfg.UnifiedMDC {
		// One shared structure with the three caches' combined capacity;
		// associativity scales with the merge so the set count stays a
		// power of two for any valid per-cache geometry.
		unified := cfg.CtrCache
		unified.SizeBytes = cfg.CtrCache.SizeBytes + cfg.MACCache.SizeBytes + cfg.BMTCache.SizeBytes
		unified.Ways = cfg.CtrCache.Ways * 3
		for unified.SizeBytes%(unified.Ways*unified.BlockBytes) != 0 ||
			(unified.Sets()&(unified.Sets()-1)) != 0 {
			unified.Ways++
		}
		shared := mem.NewCache("mdc$", unified)
		c.ctrCache, c.macCache, c.bmtCache = shared, shared, shared
	} else {
		c.ctrCache = mem.NewCache("ctr$", cfg.CtrCache)
		c.macCache = mem.NewCache("mac$", cfg.MACCache)
		c.bmtCache = mem.NewCache("bmt$", cfg.BMTCache)
	}
	c.heights = bmt.NewHeightModel(cfg)
}

// Restore builds a secure controller around the NV state captured at a
// crash point: the PM image, storage counters, MACs, and the BMT with
// its root register. It allocates a controller shell with a fresh
// crypto engine for key and boots it with Reboot, so a restored
// controller and a rebooted one come up through the same cold-start
// path. The caller owns the passed stores (they are adopted, not
// copied); a corrupt bad-block table returns a *CorruptStateError.
func Restore(cfg config.Config, key []byte, pm *PM, ctrs *meta.CounterStore, macs *meta.MACStore, tree *bmt.Tree) (*Controller, error) {
	if !cfg.Scheme.Secure() {
		return nil, fmt.Errorf("nvm: Restore requires a secure scheme, got %v", cfg.Scheme)
	}
	eng, err := crypto.NewEngine(key)
	if err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, secure: true, key: string(key), eng: eng}
	if err := c.Reboot(pm, ctrs, macs, tree); err != nil {
		return nil, err
	}
	return c, nil
}

// Reboot power-cycles a secure controller onto an NV image: the PM
// device, storage counters, MACs, and the BMT with its root register.
// The device's bad-block table is validated against its checksum before
// the image is trusted (a corrupted table would silently redirect
// blocks); a mismatch returns a *CorruptStateError and leaves the
// controller as it was. Otherwise the stores are adopted (not copied),
// the tree is re-homed on the controller's crypto engine (which hashes
// identically for the same key), the media-fault injector is re-armed
// when the config enables one, and every volatile structure comes up
// cold (initVolatile) — exactly as a post-crash memory controller
// would. Drain tuples still staged against the previous image are
// dropped with it: a caller rebooting onto the controller's own image
// reads the stores through PM and MACs first, which materializes them.
// The controller keeps its configuration, key and engine, so a
// rebooted controller is indistinguishable from Restore(cfg, key, ...)
// on the same image.
func (c *Controller) Reboot(pm *PM, ctrs *meta.CounterStore, macs *meta.MACStore, tree *bmt.Tree) error {
	if !c.secure {
		return fmt.Errorf("nvm: Reboot requires a secure scheme, got %v", c.cfg.Scheme)
	}
	if err := pm.CheckBadBlocks(); err != nil {
		return err
	}
	tree.SetHasher(c.eng)
	c.pm, c.ctrs, c.macs, c.tree = pm, ctrs, macs, tree
	c.armFault()
	c.initVolatile()
	return nil
}

// SetCrashSink installs (or, with nil, removes) the crash-injection sink
// receiving the controller's drain-pipeline crash points. Any staged
// drain tuples are materialized first: crash injection requires the
// fully-eager pipeline, and the switchover must not leave deferred work
// behind.
func (c *Controller) SetCrashSink(s crashpoint.Sink) {
	c.flushStaged()
	c.sink = s
}

// Secure reports whether the controller runs the secure data path.
func (c *Controller) Secure() bool { return c.secure }

// Config returns the configuration the controller was built with.
func (c *Controller) Config() config.Config { return c.cfg }

// PM returns the device model. Staged drain tuples are materialized
// first, so every observation of device state sees the same image the
// eager pipeline would have produced.
func (c *Controller) PM() *PM {
	c.flushStaged()
	return c.pm
}

// Counters returns the storage-counter store (nil when insecure).
// Counters advance eagerly at drain time, so no flush is needed.
func (c *Controller) Counters() *meta.CounterStore { return c.ctrs }

// MACs returns the MAC store (nil when insecure). Staged drain tuples
// are materialized first (their tags are computed by the flush).
func (c *Controller) MACs() *meta.MACStore {
	c.flushStaged()
	return c.macs
}

// Tree returns the BMT (nil when insecure).
func (c *Controller) Tree() *bmt.Tree { return c.tree }

// Engine returns the crypto engine (nil when insecure).
func (c *Controller) Engine() *crypto.Engine { return c.eng }

// Heights returns the BMF height model (nil when insecure).
func (c *Controller) Heights() *bmt.HeightModel { return c.heights }

// WPQStats returns the ADR write-pending-queue statistics.
func (c *Controller) WPQStats() (accepted, retired uint64, highWater int, fullHits uint64) {
	return c.wpq.Stats()
}

// Reencrypts returns the number of page re-encryption events.
func (c *Controller) Reencrypts() uint64 { return c.reencrypts }

// SetReencryptHook registers a page re-encryption callback. Every
// registered hook fires (one per SecPB in multi-core systems).
func (c *Controller) SetReencryptHook(fn func(page uint64)) {
	c.onReencrypt = append(c.onReencrypt, fn)
}

// Metadata-type tags keep counter, MAC and BMT lines from aliasing in
// a unified metadata cache (distinct high address bits per type).
const (
	ctrTag = uint64(1) << 60
	macTag = uint64(2) << 60
	bmtTag = uint64(3) << 60
)

// touchCtrCache models a counter-cache access for the block's line.
func (c *Controller) touchCtrCache(b addr.Block, write bool) Cost {
	a := ctrTag | meta.LineAddr(b.CounterLine())
	hit := false
	if write {
		hit = c.ctrCache.AccessWrite(a)
	} else {
		hit = c.ctrCache.AccessRead(a)
	}
	if hit {
		return Cost{CtrCacheHit: true}
	}
	c.ctrCache.Fill(a, write, false)
	return Cost{CtrFetchPM: true, PMReads: 1}
}

// touchMACCache models a MAC-cache access for the block's MAC line.
func (c *Controller) touchMACCache(b addr.Block, write bool) Cost {
	a := macTag | meta.MACLineAddr(b)
	hit := false
	if write {
		hit = c.macCache.AccessWrite(a)
	} else {
		hit = c.macCache.AccessRead(a)
	}
	if hit {
		return Cost{}
	}
	c.macCache.Fill(a, write, false)
	return Cost{PMReads: 1}
}

// walkBMT charges a leaf-to-root walk for the block's page: BMT-cache
// accesses for each node plus one hash per level, then updates (or
// verifies) the functional tree. The returned cost carries the levels
// walked under the configured BMF mode.
func (c *Controller) walkBMT(b addr.Block, update bool) Cost {
	page := b.CounterLine()
	levels := c.heights.WalkLevels(page)
	var cost Cost
	cost.BMTLevels = levels
	cost.Hashes += levels
	c.pathIDs = c.tree.AppendPathNodeIDs(c.pathIDs[:0], page)
	ids := c.pathIDs
	for i := 0; i < levels && i < len(ids); i++ {
		nodeAddr := bmtTag | ids[i]<<6 // distinct pseudo-address per node
		hit := false
		if update {
			hit = c.bmtCache.AccessWrite(nodeAddr)
		} else {
			hit = c.bmtCache.AccessRead(nodeAddr)
		}
		if !hit {
			c.bmtCache.Fill(nodeAddr, update, false)
			cost.BMTNodeFetch++
			cost.PMReads++
		}
	}
	if update {
		// Update stages the walk in the tree's dirty-leaf set; the
		// physical hashing is coalesced into the next sweep (see
		// CompleteSweep). Cost accounting above stays per-walk.
		c.ctrs.Line(page).PutBytes(c.lineBuf[:])
		c.tree.Update(page, c.lineBuf[:])
	}
	return cost
}

// CompleteSweep commits all BMT updates staged by drained blocks with one
// deduplicated bottom-up sweep, hashing each shared interior node once
// instead of once per drained line. Drain loops call it at the end of a
// drain burst/epoch; any read-path verification triggers the same sweep
// implicitly, so calling it affects only wall-clock, never results or
// Cost statistics. It returns the number of physical node hashes the
// sweep computed.
func (c *Controller) CompleteSweep() int {
	if !c.secure {
		return 0
	}
	if c.sink != nil {
		c.sink.CrashPoint(crashpoint.SweepBoundary, 0)
	}
	return c.tree.Sweep()
}

// NextCounter returns the counter value a new SecPB entry should carry:
// the storage counter plus one. Eager schemes call this at allocation
// and pay the counter-cache access there; the authoritative increment
// happens at drain.
func (c *Controller) NextCounter(b addr.Block) (value uint64, cost Cost) {
	cost = c.touchCtrCache(b, false)
	return c.ctrs.Value(b) + 1, cost
}

// MakeOTP generates the pad for a block under the given counter.
func (c *Controller) MakeOTP(b addr.Block, counter uint64) ([addr.BlockBytes]byte, Cost) {
	var pad [addr.BlockBytes]byte
	c.eng.OTPInto(&pad, b.Addr(), counter)
	return pad, Cost{AESOps: 1}
}

// MakeOTPInto is MakeOTP writing the pad directly into dst (hot-path
// form for per-entry early OTP generation into a SecPB entry field).
func (c *Controller) MakeOTPInto(dst *[addr.BlockBytes]byte, b addr.Block, counter uint64) Cost {
	c.eng.OTPInto(dst, b.Addr(), counter)
	return Cost{AESOps: 1}
}

// MakeMAC computes the tag for ciphertext under the given counter.
func (c *Controller) MakeMAC(b addr.Block, cipher *[addr.BlockBytes]byte, counter uint64) ([crypto.MACSize]byte, Cost) {
	var tag [crypto.MACSize]byte
	c.eng.MACInto(&tag, cipher, b.Addr(), counter)
	return tag, Cost{Hashes: 1}
}

// MakeMACInto is MakeMAC writing the tag directly into dst (hot-path
// form for per-store early MAC regeneration into a SecPB entry field).
func (c *Controller) MakeMACInto(dst *[crypto.MACSize]byte, b addr.Block, cipher *[addr.BlockBytes]byte, counter uint64) Cost {
	c.eng.MACInto(dst, cipher, b.Addr(), counter)
	return Cost{Hashes: 1}
}

// ChargeBMTWalk accounts an eager BMT root update at allocation time
// (timing/energy only; the functional tree is updated when the entry
// drains so tree and storage counters stay consistent).
func (c *Controller) ChargeBMTWalk(b addr.Block) Cost {
	return c.walkBMT(b, false)
}

// pmWrite stages a block write through the ADR WPQ into the device.
func (c *Controller) pmWrite(b addr.Block, data *[addr.BlockBytes]byte) {
	c.wpq.Accept()
	c.pm.Write(b, *data)
	if c.sink != nil && !c.inReencrypt {
		c.sink.CrashPoint(crashpoint.WPQFlush, b)
	}
	// The device drains the queue continuously; retire lazily at half
	// occupancy to produce a realistic high-water profile.
	if c.wpq.Occupancy() > c.wpq.Capacity()/2 {
		c.wpq.Retire(1)
	}
}

// PersistInsecure writes plaintext directly (BBB baseline drain). The
// error is non-nil only on faulty media whose retry/remap path is
// exhausted (*MediaError).
func (c *Controller) PersistInsecure(b addr.Block, plain *[addr.BlockBytes]byte) (Cost, error) {
	cost := Cost{PMDataWrites: 1}
	if c.pm.Faulty() {
		extra, err := c.pmWriteFaulty(b, plain)
		cost.Add(extra)
		if err != nil {
			return cost, fmt.Errorf("nvm: persist block %#x: %w", b.Addr(), err)
		}
	} else {
		c.pmWrite(b, plain)
	}
	return cost, nil
}

// zeroPrepared is the shared empty PreparedMeta that PersistBlock
// substitutes when prepared metadata is absent (nil) or went stale.
// It is only ever read through.
var zeroPrepared PreparedMeta

// PersistBlock completes and persists the memory tuple for a draining
// entry: (ciphertext, counter, MAC, BMT root) all become durable and
// mutually consistent. Prepared elements are consumed instead of being
// recomputed — the cost difference between eager and lazy schemes.
// Both plain and prep are passed by pointer: drains run once per store
// at steady state, and the ~280 bytes of by-value argument copies were
// measurable in drain-heavy profiles. A nil prep means "nothing
// prepared"; PersistBlock never writes through prep.
func (c *Controller) PersistBlock(b addr.Block, plain *[addr.BlockBytes]byte, prep *PreparedMeta) (Cost, error) {
	if !c.secure {
		return c.PersistInsecure(b, plain)
	}
	if prep == nil {
		prep = &zeroPrepared
	}
	var cost Cost

	// Counter: apply the increment(s) to the storage counters.
	cost.Add(c.touchCtrCache(b, true))
	advance := prep.CounterAdvance
	if advance <= 0 {
		advance = 1
	}
	var newCtr uint64
	for i := 0; i < advance; i++ {
		if c.ctrs.WouldOverflow(b) {
			reCost, err := c.reencryptPage(b)
			cost.Add(reCost)
			if err != nil {
				return cost, err
			}
			// The overflow reset invalidates any prepared metadata.
			prep = &zeroPrepared
		}
		var overflow bool
		newCtr, overflow = c.ctrs.Increment(b)
		if overflow {
			return cost, fmt.Errorf("nvm: unhandled counter overflow for block %#x", b.Addr())
		}
	}
	if prep.CounterDone && prep.Counter != newCtr {
		// Prepared metadata went stale (page re-encrypted since
		// allocation, or the entry is being re-drained after a crash
		// interrupted its first drain past the counter increment).
		prep = &zeroPrepared
	}
	if c.sink != nil {
		c.sink.CrashPoint(crashpoint.CounterPersist, b)
	}

	if c.canStage() {
		c.stageTuple(b, plain, prep, newCtr, &cost)
		if prep.BMTDone {
			c.ctrs.Line(b.CounterLine()).PutBytes(c.lineBuf[:])
			c.tree.Update(b.CounterLine(), c.lineBuf[:])
		} else {
			cost.Add(c.walkBMT(b, true))
		}
		return cost, nil
	}

	// OTP and ciphertext.
	var ct [addr.BlockBytes]byte
	switch {
	case prep.CipherDone:
		ct = prep.Cipher
	case prep.OTPDone:
		crypto.XOR(&ct, plain, &prep.OTP)
	default:
		cost.Add(c.MakeOTPInto(&c.otpBuf, b, newCtr))
		crypto.XOR(&ct, plain, &c.otpBuf)
	}
	if c.pm.Faulty() {
		extra, werr := c.pmWriteFaulty(b, &ct)
		cost.Add(extra)
		if werr != nil {
			cost.PMDataWrites++
			return cost, fmt.Errorf("nvm: persist block %#x: %w", b.Addr(), werr)
		}
	} else {
		c.pmWrite(b, &ct)
	}
	cost.PMDataWrites++

	// MAC.
	var tag [crypto.MACSize]byte
	if prep.MACDone {
		tag = prep.MAC
	} else {
		var macCost Cost
		tag, macCost = c.MakeMAC(b, &ct, newCtr)
		cost.Add(macCost)
	}
	cost.Add(c.touchMACCache(b, true))
	c.macs.Put(b, tag)

	// BMT root: the functional tree always updates here (it must hash
	// the post-increment storage counters); the walk cost is charged
	// only if the scheme did not already pay it at allocation.
	if prep.BMTDone {
		c.ctrs.Line(b.CounterLine()).PutBytes(c.lineBuf[:])
		c.tree.Update(b.CounterLine(), c.lineBuf[:])
	} else {
		cost.Add(c.walkBMT(b, true))
	}
	return cost, nil
}

// canStage reports whether drain-tuple materialization may defer: only
// on the fast path — no crash sink (crash snapshots must observe the
// exact eager pipeline state), perfect media (the fault model's
// write/verify stream is per-write), and outside a page re-encryption.
func (c *Controller) canStage() bool {
	return c.sink == nil && !c.inReencrypt && !c.pm.Faulty()
}

// stageTuple is the deferred form of the eager OTP/cipher/MAC sections
// of PersistBlock. Everything the rest of the simulator can observe
// mid-run is done now, identically to the eager path: the Cost events
// (AESOps, Hashes, PMDataWrites), the WPQ accept/retire stream, the
// device write counter, the MAC-cache touch, and (when prepared) the
// final MAC value. Only the pad derivation, the XOR, and the MAC hash
// move to flushStaged — and a later drain of the same block before the
// flush overwrites the slot, which is where the win comes from: at
// steady state a hot working set re-drains into its staged slots and
// the physical hashing coalesces to once per flush epoch instead of
// once per drain. Every observation of PM or MAC state flushes first,
// so results are byte-identical to the eager pipeline.
func (c *Controller) stageTuple(b addr.Block, plain *[addr.BlockBytes]byte, prep *PreparedMeta, newCtr uint64, cost *Cost) {
	slot, _ := c.stagedIx.GetOrCreate(b.Index())
	var t *stagedTuple
	if *slot > 0 {
		t = &c.staged[*slot-1]
		c.stagedCoalesced++
		c.pm.StageBlock(b) // re-drain writes the device again
	} else {
		if len(c.staged) >= maxStagedTuples {
			c.flushStaged()
			slot, _ = c.stagedIx.GetOrCreate(b.Index())
		}
		c.staged = append(c.staged, stagedTuple{block: b, cell: c.pm.StageBlock(b)})
		t = &c.staged[len(c.staged)-1]
		*slot = int32(len(c.staged))
	}
	c.wpq.Accept()
	if c.wpq.Occupancy() > c.wpq.Capacity()/2 {
		c.wpq.Retire(1)
	}
	t.ctr = newCtr
	switch {
	case prep.CipherDone:
		*t.cell = prep.Cipher
		t.needOTP = false
	case prep.OTPDone:
		crypto.XOR(t.cell, plain, &prep.OTP)
		t.needOTP = false
	default:
		*t.cell = *plain
		t.needOTP = true
		cost.AESOps++
	}
	cost.PMDataWrites++
	if prep.MACDone {
		t.needMAC = false
		c.macs.Put(b, prep.MAC)
	} else {
		t.needMAC = true
		cost.Hashes++
	}
	cost.Add(c.touchMACCache(b, true))
}

// flushStaged materializes every staged drain tuple, in insertion
// order: derive the pad and encrypt the cell in place, then compute the
// outstanding MAC straight into the MAC store's tag cell. No Cost
// events are charged here — stageTuple charged them at drain time.
func (c *Controller) flushStaged() {
	if len(c.staged) == 0 {
		return
	}
	c.stagedFlushes++
	for i := range c.staged {
		t := &c.staged[i]
		if t.needOTP {
			c.eng.OTPInto(&c.otpBuf, t.block.Addr(), t.ctr)
			crypto.XOR(t.cell, t.cell, &c.otpBuf)
		}
		if t.needMAC {
			c.eng.MACInto(c.macs.PutSlot(t.block), t.cell, t.block.Addr(), t.ctr)
		}
		*c.stagedIx.Lookup(t.block.Index()) = 0
	}
	c.staged = c.staged[:0]
}

// FlushStaged materializes all deferred drain tuples. The engine calls
// it at end-of-run; any observation of PM or MAC state flushes
// implicitly, so forgetting a call can never change results.
func (c *Controller) FlushStaged() { c.flushStaged() }

// StagedStats returns (flush epochs, re-drains coalesced into an
// existing staged slot).
func (c *Controller) StagedStats() (flushes, coalesced uint64) {
	return c.stagedFlushes, c.stagedCoalesced
}

// reencryptPage re-encrypts every resident block of b's page: decrypt
// each under its current storage counter, reset happens in the caller's
// Increment, then re-encrypt under the new counters. Counter-mode pads
// die with their counter, so this is mandatory on overflow; the paper
// notes counter coalescing delays it.
func (c *Controller) reencryptPage(b addr.Block) (Cost, error) {
	c.flushStaged() // reads the page's resident ciphertext
	c.reencrypts++
	// A page re-encryption's intermediate plaintexts exist only in MC
	// latches; the battery completes it atomically, so no crash point
	// may split it (see the crashpoint package doc).
	c.inReencrypt = true
	defer func() { c.inReencrypt = false }()
	var cost Cost
	cost.PageReencrypt = true
	page := b.Page()
	firstIdx := page * addr.BlocksPerPage

	type saved struct {
		blk   addr.Block
		plain [addr.BlockBytes]byte
	}
	var plains []saved
	for i := uint64(0); i < addr.BlocksPerPage; i++ {
		blk := addr.FromIndex(firstIdx + i)
		ctOld, ok := c.pm.Peek(blk)
		if !ok {
			continue
		}
		oldCtr := c.ctrs.Value(blk)
		plain := c.eng.Decrypt(&ctOld, blk.Addr(), oldCtr)
		plains = append(plains, saved{blk, plain})
		cost.AESOps++
		cost.PMReads++
	}

	// Advance the major counter and reset minors.
	c.ctrs.ForceMajorRollover(page)

	for _, s := range plains {
		newCtr := c.ctrs.Value(s.blk)
		ct := c.eng.Encrypt(&s.plain, s.blk.Addr(), newCtr)
		if c.pm.Faulty() {
			extra, werr := c.pmWriteFaulty(s.blk, &ct)
			cost.Add(extra)
			if werr != nil {
				return cost, fmt.Errorf("nvm: re-encrypt page %d: %w", page, werr)
			}
		} else {
			c.pmWrite(s.blk, &ct)
		}
		c.macs.Put(s.blk, c.eng.MAC(&ct, s.blk.Addr(), newCtr))
		cost.AESOps++
		cost.Hashes++
		cost.PMDataWrites++
		cost.PMMetaWrites++
	}
	cost.Add(c.walkBMT(b, true))
	for _, hook := range c.onReencrypt {
		hook(page)
	}
	return cost, nil
}

// FetchBlock reads a block from PM on an LLC miss: decrypt under the
// storage counter, verify the MAC, and (non-speculatively or as the
// background check of speculative verification) verify the counter's
// BMT path. A verification error means the PM image is corrupt or
// stale — in a healthy run it never fires, and the attack experiments
// assert that tampering makes it fire.
func (c *Controller) FetchBlock(b addr.Block) ([addr.BlockBytes]byte, Cost, error) {
	c.flushStaged()
	if _, written := c.pm.Peek(b); !written {
		// Fresh media: never-written blocks read as zeros and carry no
		// tuple yet (memory is initialized lazily on first persist).
		return c.pm.Read(b), Cost{PMReads: 1}, nil
	}
	ct := c.pm.Read(b)
	cost := Cost{PMReads: 1}
	if !c.secure {
		return ct, cost, nil
	}
	cost.Add(c.touchCtrCache(b, false))
	ctr := c.ctrs.Value(b)
	plain := c.eng.Decrypt(&ct, b.Addr(), ctr)
	cost.AESOps++

	wantTag, macCost := c.MakeMAC(b, &ct, ctr)
	cost.Add(macCost)
	cost.Add(c.touchMACCache(b, false))
	if err := c.macs.Verify(b, wantTag); err != nil {
		return plain, cost, fmt.Errorf("nvm: integrity failure: %w", err)
	}
	cost.Add(c.walkBMT(b, false))
	page := b.CounterLine()
	c.ctrs.Line(page).PutBytes(c.lineBuf[:])
	if err := c.tree.Verify(page, c.lineBuf[:]); err != nil {
		return plain, cost, fmt.Errorf("nvm: integrity failure: %w", err)
	}
	return plain, cost, nil
}

// MetadataCaches exposes (ctr$, mac$, bmt$) for statistics; entries are
// nil when insecure.
func (c *Controller) MetadataCaches() (ctr, mac, bmtc *mem.Cache) {
	return c.ctrCache, c.macCache, c.bmtCache
}
