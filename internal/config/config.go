// Package config defines the simulated system parameters (the paper's
// Table I), the evaluated persistence schemes (Table II), and validation.
package config

import "fmt"

// Scheme selects which parts of the memory tuple (ciphertext, counter,
// MAC, BMT root) are updated early — at store-persist time — versus late
// — post-crash on battery. The letters name the tuple elements deferred
// to post-crash time, so the longer the name, the lazier the scheme.
type Scheme int

const (
	// SchemeBBB is the insecure battery-backed-buffer baseline:
	// no encryption, MACs, or integrity tree at all.
	SchemeBBB Scheme = iota
	// SchemeSP is the strict-persistency secure baseline with the SPoP
	// at the memory controller (PLP-style): every persist waits for the
	// full tuple update at the MC.
	SchemeSP
	// SchemeNoGap eagerly updates all metadata at store persist time.
	SchemeNoGap
	// SchemeM defers only MAC generation to post-crash.
	SchemeM
	// SchemeCM defers ciphertext and MAC generation.
	SchemeCM
	// SchemeBCM defers BMT root update, ciphertext and MAC.
	SchemeBCM
	// SchemeOBCM additionally defers OTP generation; only the counter is
	// fetched and incremented early.
	SchemeOBCM
	// SchemeCOBCM defers everything; a store only writes plaintext data
	// into the SecPB.
	SchemeCOBCM
)

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeBBB:
		return "bbb"
	case SchemeSP:
		return "sp"
	case SchemeNoGap:
		return "nogap"
	case SchemeM:
		return "m"
	case SchemeCM:
		return "cm"
	case SchemeBCM:
		return "bcm"
	case SchemeOBCM:
		return "obcm"
	case SchemeCOBCM:
		return "cobcm"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// MarshalText renders the scheme name in JSON and text encodings.
func (s Scheme) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// SchemeByName returns the scheme with the given paper name.
func SchemeByName(name string) (Scheme, error) {
	for _, s := range AllSchemes() {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("config: unknown scheme %q", name)
}

// SecPBSchemes lists the six SecPB design points from eager to lazy.
func SecPBSchemes() []Scheme {
	return []Scheme{SchemeNoGap, SchemeM, SchemeCM, SchemeBCM, SchemeOBCM, SchemeCOBCM}
}

// AllSchemes lists baselines plus the six SecPB schemes.
func AllSchemes() []Scheme {
	return append([]Scheme{SchemeBBB, SchemeSP}, SecPBSchemes()...)
}

// Secure reports whether the scheme provides encryption + integrity.
func (s Scheme) Secure() bool { return s != SchemeBBB }

// Early work performed per scheme. Per-entry work happens once per newly
// dirtied SecPB entry (the data-value-independent coalescing optimization
// of Section IV.A); per-store work happens on every store.
type EarlyWork struct {
	Counter    bool // fetch + increment counter (per entry)
	OTP        bool // generate one-time pad (per entry)
	BMT        bool // update BMT leaf-to-root (per entry)
	Ciphertext bool // XOR plaintext with pad (per store)
	MAC        bool // compute MAC (per store)
}

// Early returns the early-work profile for a SecPB scheme. Baselines
// (BBB, SP) have no SecPB early/late split: BBB does nothing, SP performs
// the full tuple at the MC on each persist.
func (s Scheme) Early() EarlyWork {
	switch s {
	case SchemeNoGap:
		return EarlyWork{Counter: true, OTP: true, BMT: true, Ciphertext: true, MAC: true}
	case SchemeM:
		return EarlyWork{Counter: true, OTP: true, BMT: true, Ciphertext: true}
	case SchemeCM:
		return EarlyWork{Counter: true, OTP: true, BMT: true}
	case SchemeBCM:
		return EarlyWork{Counter: true, OTP: true}
	case SchemeOBCM:
		return EarlyWork{Counter: true}
	default:
		return EarlyWork{}
	}
}

// BMFMode selects the Bonsai-Merkle-Forest height reduction used for the
// Figure 9 study.
type BMFMode int

const (
	// BMFNone uses the single full-height BMT.
	BMFNone BMFMode = iota
	// BMFDynamic is DBMF: dynamically rooted subtrees with a root cache,
	// reducing the effective update height to DBMFHeight levels.
	BMFDynamic
	// BMFStatic is SBMF: statically partitioned forest, reducing the
	// effective update height to SBMFHeight levels.
	BMFStatic
)

// String returns the name of the BMF mode.
func (m BMFMode) String() string {
	switch m {
	case BMFNone:
		return "none"
	case BMFDynamic:
		return "dbmf"
	case BMFStatic:
		return "sbmf"
	default:
		return fmt.Sprintf("bmf(%d)", int(m))
	}
}

// CacheConfig describes one level of the data cache hierarchy.
type CacheConfig struct {
	SizeBytes    int
	Ways         int
	BlockBytes   int
	AccessCycles uint64
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Ways * c.BlockBytes) }

// Config collects every simulated system parameter. The zero value is
// not meaningful; start from Default.
type Config struct {
	// Core.
	ClockGHz       float64
	StoreBufferCap int

	// Data caches (Table I).
	L1, L2, L3 CacheConfig

	// Volatile metadata caches in the MC (Table I).
	CtrCache, MACCache, BMTCache CacheConfig

	// SecPB / persist buffer.
	SecPBEntries   int
	SecPBAccessCyc uint64
	DrainHi        float64 // high watermark fraction triggering drain
	DrainLo        float64 // low watermark fraction stopping drain

	// Security mechanisms.
	BMTLevels   int     // full BMT height (8)
	MACLatency  uint64  // cycles per MAC / per BMT level hash (40)
	AESLatency  uint64  // cycles per OTP generation (40)
	BMFMode     BMFMode // height reduction for Fig 9
	DBMFHeight  int     // effective update height under DBMF (2)
	SBMFHeight  int     // effective update height under SBMF (5)
	RootCacheKB int     // BMF root cache (4KB)
	Speculative bool    // speculative integrity verification (PoisonIvy)
	WPQEntries  int     // ADR write pending queue
	Scheme      Scheme
	// UnifiedMDC replaces the three separate metadata caches with one
	// shared cache of their combined capacity (the paper notes the
	// metadata caches "may be physically separate or unified").
	UnifiedMDC bool
	// DisableDVICoalescing turns off the Section IV.A optimization:
	// eager schemes then regenerate data-value-independent metadata
	// (counter, OTP, BMT walk) on every store instead of once per
	// newly dirtied entry. Used by the ablation study.
	DisableDVICoalescing bool

	// NVM (Table I).
	PMSizeBytes  uint64
	PMReadNanos  float64
	PMWriteNanos float64

	// Media-fault model (internal/fault). All-zero rates model perfect
	// media and keep every artifact byte-identical to the fault-free
	// build; nonzero rates arm a deterministic injector under the PM
	// device and enable the controller's program-and-verify retry path.
	FaultSeed          uint64  // injector seed; 0 derives from Seed
	FaultWriteFailRate float64 // transient write failures, per attempt
	FaultTornRate      float64 // torn (partial-line) writes, per attempt
	FaultRotRate       float64 // latent bit rot, per read / decay visit
	MaxWriteRetries    int     // bounded retries before bad-block remap

	// Multi-core sharded simulation (engine.System). Cores <= 1 keeps the
	// classic single-core engine path — every existing artifact is
	// produced by exactly the same code. Cores >= 2 simulates N cores,
	// each with a private store buffer, SecPB, cache hierarchy and
	// memory-channel shard (own controller + PM + metadata stores), plus
	// one shared coherent region handled by the MESI directory of
	// internal/coherence at drain-epoch barriers.
	Cores int
	// MCSharedPerKilo is the per-kilo-op rate at which a core's stream is
	// redirected to the shared coherent region (0 uses the default).
	MCSharedPerKilo int
	// MCSharedBlocks is the size of the shared hot region in blocks
	// (0 uses the default).
	MCSharedBlocks int
	// MCEpochOps is the number of ops each core advances between
	// drain-epoch barriers (0 uses the default). Barriers are where
	// deferred shared-region ops replay in canonical core order, so this
	// knob trades cross-core merge latency for barrier frequency; the
	// result stream is deterministic at any setting of the worker pool.
	MCEpochOps int

	// Seed for workload generation.
	Seed uint64
}

// FaultEnabled reports whether any media-fault class has a nonzero rate.
func (c Config) FaultEnabled() bool {
	return c.FaultWriteFailRate > 0 || c.FaultTornRate > 0 || c.FaultRotRate > 0
}

// Default returns the paper's Table I configuration with a 32-entry
// SecPB running COBCM.
func Default() Config {
	return Config{
		ClockGHz:       4.0,
		StoreBufferCap: 8,

		L1: CacheConfig{SizeBytes: 64 << 10, Ways: 8, BlockBytes: 64, AccessCycles: 2},
		L2: CacheConfig{SizeBytes: 512 << 10, Ways: 16, BlockBytes: 64, AccessCycles: 20},
		L3: CacheConfig{SizeBytes: 4 << 20, Ways: 32, BlockBytes: 64, AccessCycles: 30},

		CtrCache: CacheConfig{SizeBytes: 128 << 10, Ways: 8, BlockBytes: 64, AccessCycles: 2},
		MACCache: CacheConfig{SizeBytes: 128 << 10, Ways: 8, BlockBytes: 64, AccessCycles: 2},
		BMTCache: CacheConfig{SizeBytes: 128 << 10, Ways: 8, BlockBytes: 64, AccessCycles: 2},

		SecPBEntries:   32,
		SecPBAccessCyc: 2,
		DrainHi:        0.75,
		DrainLo:        0.25,

		BMTLevels:   8,
		MACLatency:  40,
		AESLatency:  40,
		BMFMode:     BMFNone,
		DBMFHeight:  2,
		SBMFHeight:  5,
		RootCacheKB: 4,
		Speculative: true,
		WPQEntries:  32,
		Scheme:      SchemeCOBCM,

		PMSizeBytes:  8 << 30,
		PMReadNanos:  55,
		PMWriteNanos: 150,

		MaxWriteRetries: 3,

		Seed: 0x5ec9b,
	}
}

// PMReadCycles converts the PM read latency to core cycles.
func (c Config) PMReadCycles() uint64 {
	return uint64(c.PMReadNanos * c.ClockGHz)
}

// PMWriteCycles converts the PM write latency to core cycles.
func (c Config) PMWriteCycles() uint64 {
	return uint64(c.PMWriteNanos * c.ClockGHz)
}

// EffectiveBMTLevels returns the number of tree levels a leaf-to-root
// update traverses under the configured BMF mode.
func (c Config) EffectiveBMTLevels() int {
	switch c.BMFMode {
	case BMFDynamic:
		return c.DBMFHeight
	case BMFStatic:
		return c.SBMFHeight
	default:
		return c.BMTLevels
	}
}

// Validate reports the first invalid parameter, if any.
func (c Config) Validate() error {
	checkCache := func(name string, cc CacheConfig) error {
		if cc.SizeBytes <= 0 || cc.Ways <= 0 || cc.BlockBytes <= 0 {
			return fmt.Errorf("config: %s cache has non-positive geometry", name)
		}
		if cc.SizeBytes%(cc.Ways*cc.BlockBytes) != 0 {
			return fmt.Errorf("config: %s cache size %d not divisible by way*block", name, cc.SizeBytes)
		}
		sets := cc.Sets()
		if sets&(sets-1) != 0 {
			return fmt.Errorf("config: %s cache set count %d not a power of two", name, sets)
		}
		return nil
	}
	for _, e := range []struct {
		name string
		cc   CacheConfig
	}{{"L1", c.L1}, {"L2", c.L2}, {"L3", c.L3}, {"ctr", c.CtrCache}, {"mac", c.MACCache}, {"bmt", c.BMTCache}} {
		if err := checkCache(e.name, e.cc); err != nil {
			return err
		}
	}
	if c.SecPBEntries <= 0 {
		return fmt.Errorf("config: SecPBEntries must be positive, got %d", c.SecPBEntries)
	}
	if !(c.DrainLo >= 0 && c.DrainLo < c.DrainHi && c.DrainHi <= 1) {
		return fmt.Errorf("config: watermarks must satisfy 0 <= lo < hi <= 1, got lo=%v hi=%v", c.DrainLo, c.DrainHi)
	}
	if c.BMTLevels <= 0 || c.BMTLevels > 24 {
		return fmt.Errorf("config: BMTLevels out of range: %d", c.BMTLevels)
	}
	if c.BMFMode == BMFDynamic && (c.DBMFHeight <= 0 || c.DBMFHeight > c.BMTLevels) {
		return fmt.Errorf("config: DBMFHeight out of range: %d", c.DBMFHeight)
	}
	if c.BMFMode == BMFStatic && (c.SBMFHeight <= 0 || c.SBMFHeight > c.BMTLevels) {
		return fmt.Errorf("config: SBMFHeight out of range: %d", c.SBMFHeight)
	}
	if c.StoreBufferCap <= 0 {
		return fmt.Errorf("config: StoreBufferCap must be positive")
	}
	if c.PMSizeBytes == 0 || c.PMSizeBytes%(64<<10) != 0 {
		return fmt.Errorf("config: PM size must be a positive multiple of 64KB")
	}
	if c.ClockGHz <= 0 || c.PMReadNanos <= 0 || c.PMWriteNanos <= 0 {
		return fmt.Errorf("config: clock and PM latencies must be positive")
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"FaultWriteFailRate", c.FaultWriteFailRate}, {"FaultTornRate", c.FaultTornRate}, {"FaultRotRate", c.FaultRotRate}} {
		if r.v < 0 || r.v >= 1 {
			return fmt.Errorf("config: %s must be in [0,1), got %v", r.name, r.v)
		}
	}
	if c.MaxWriteRetries < 0 || c.MaxWriteRetries > 16 {
		return fmt.Errorf("config: MaxWriteRetries out of range: %d", c.MaxWriteRetries)
	}
	if c.Cores < 0 || c.Cores > 1024 {
		return fmt.Errorf("config: Cores out of range [0,1024]: %d", c.Cores)
	}
	if c.MCSharedPerKilo < 0 || c.MCSharedPerKilo > 1000 {
		return fmt.Errorf("config: MCSharedPerKilo out of range [0,1000]: %d", c.MCSharedPerKilo)
	}
	if c.MCSharedBlocks < 0 {
		return fmt.Errorf("config: MCSharedBlocks must be non-negative, got %d", c.MCSharedBlocks)
	}
	if c.MCEpochOps < 0 {
		return fmt.Errorf("config: MCEpochOps must be non-negative, got %d", c.MCEpochOps)
	}
	return nil
}

// EffectiveCores returns the simulated core count (Cores, min 1).
func (c Config) EffectiveCores() int {
	if c.Cores <= 1 {
		return 1
	}
	return c.Cores
}

// WithScheme returns a copy of c running the given scheme.
func (c Config) WithScheme(s Scheme) Config {
	c.Scheme = s
	return c
}

// WithSecPBEntries returns a copy of c with the given SecPB capacity.
func (c Config) WithSecPBEntries(n int) Config {
	c.SecPBEntries = n
	return c
}

// WithCores returns a copy of c simulating n cores.
func (c Config) WithCores(n int) Config {
	c.Cores = n
	return c
}
