// Package core implements SecPB — the secure persist buffer that is this
// paper's contribution. SecPB aligns the security point of persistency
// (SPoP) with the point of persistency (PoP): as a store enters the
// buffer it is persistent, and the buffer's controller coordinates when
// each element of the memory tuple (ciphertext, counter, MAC, BMT root)
// is generated — early, at store-persist time, or late, on battery after
// a crash — according to the configured scheme (NoGap, M, CM, BCM, OBCM,
// COBCM).
//
// Each entry carries the fields of the paper's Figure 5: the plaintext
// block Dp, the one-time pad O, the ciphertext Dc, the counter C, the
// BMT-updated bit B, and the MAC M, each with a valid bit. Which fields
// a scheme populates eagerly follows config.Scheme.Early().
//
// The data-value-independent coalescing optimization (Section IV.A) is
// implemented here: counter increment, OTP generation and the BMT walk
// happen once per newly dirtied entry, not once per store, because the
// crash observer may only see post-drain state.
package core

import (
	"fmt"
	"slices"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/crashpoint"
	"secpb/internal/crypto"
	"secpb/internal/nvm"
	"secpb/internal/pb"
)

// SecMeta is the per-entry security-metadata extension: the O, Dc, C, B
// and M fields of a SecPB entry with their valid bits.
type SecMeta struct {
	OTP          [addr.BlockBytes]byte
	OTPValid     bool
	Cipher       [addr.BlockBytes]byte
	CipherValid  bool
	Counter      uint64
	CounterValid bool
	// CounterAdvance counts how many counter increments this entry owes
	// the storage counters at drain: 1 with the Section IV.A coalescing
	// optimization, one per store without it (ablation mode).
	CounterAdvance int
	BMTDone        bool
	MAC            [crypto.MACSize]byte
	MACValid       bool
}

// preparedInto fills the drain-side PreparedMeta the memory controller
// consumes from the entry's valid fields. Writing into a caller-owned
// struct (the SecPB's drain scratch) instead of returning by value
// keeps the ~280-byte struct off the per-drain copy path.
func (m *SecMeta) preparedInto(p *nvm.PreparedMeta) {
	p.CounterDone = m.CounterValid
	p.Counter = m.Counter
	p.CounterAdvance = m.CounterAdvance
	p.OTPDone = m.OTPValid
	p.OTP = m.OTP
	p.CipherDone = m.CipherValid
	p.Cipher = m.Cipher
	p.MACDone = m.MACValid
	p.MAC = m.MAC
	p.BMTDone = m.BMTDone
}

// PrepareInto is the exported form of preparedInto for callers outside
// the package (the recovery late-work path re-drains snapshot entries).
func (m *SecMeta) PrepareInto(p *nvm.PreparedMeta) { m.preparedInto(p) }

// Entry is a SecPB entry.
type Entry = pb.Entry[SecMeta]

// AcceptCost describes the work a store triggered at acceptance time so
// the engine can charge unit latencies. Booleans/counters refer to the
// early work actually performed for this store under the scheme.
type AcceptCost struct {
	Allocated    bool     // a new entry was allocated
	CtrCost      nvm.Cost // counter-cache access cost (if counter early)
	CounterStep  bool     // counter fetched+incremented early
	OTPGenerated bool     // AES engine used (per entry)
	BMTLevels    int      // BMT levels walked early (per entry)
	BMTNodeFetch int      // BMT cache misses during the early walk
	CipherXOR    bool     // per-store ciphertext regeneration
	MACGenerated bool     // per-store MAC regeneration
}

// SecPB is one core's secure persist buffer plus its controller FSM.
type SecPB struct {
	cfg    config.Config
	scheme config.Scheme
	early  config.EarlyWork
	buf    *pb.Buffer[SecMeta]
	mc     *nvm.Controller

	// prep is the drain-path scratch PreparedMeta handed to
	// PersistBlock by pointer; the SecPB is single-threaded.
	prep nvm.PreparedMeta

	// sink, when non-nil, receives the entry-allocation crash point.
	sink crashpoint.Sink
	// inflight is the entry whose drain is currently executing at the
	// memory controller: it has left the buffer but its tuple update is
	// not complete, so it is still battery-covered state that a crash
	// snapshot must capture (the MC's drain latches).
	inflight *Entry

	// Statistics.
	stores      uint64
	allocs      uint64
	earlyBMT    uint64 // BMT walks charged at allocation
	earlyOTP    uint64
	earlyMAC    uint64
	earlyXOR    uint64
	invalidated uint64 // prepared-metadata invalidations (page re-encryption)
}

// New builds a SecPB attached to the given memory controller.
func New(cfg config.Config, mc *nvm.Controller) (*SecPB, error) {
	if !cfg.Scheme.Secure() && cfg.Scheme != config.SchemeBBB {
		return nil, fmt.Errorf("core: scheme %v not supported by SecPB", cfg.Scheme)
	}
	buf, err := pb.New[SecMeta](cfg.SecPBEntries, cfg.DrainHi, cfg.DrainLo)
	if err != nil {
		return nil, err
	}
	s := &SecPB{
		cfg:    cfg,
		scheme: cfg.Scheme,
		early:  cfg.Scheme.Early(),
		buf:    buf,
		mc:     mc,
	}
	if mc.Secure() {
		mc.SetReencryptHook(s.invalidatePage)
	}
	return s, nil
}

// Scheme returns the configured persistence scheme.
func (s *SecPB) Scheme() config.Scheme { return s.scheme }

// Len returns the current occupancy.
func (s *SecPB) Len() int { return s.buf.Len() }

// PeakLen returns the high-water entry occupancy over the run.
func (s *SecPB) PeakLen() int { return s.buf.PeakLen() }

// Full reports whether a new allocation would fail.
func (s *SecPB) Full() bool { return s.buf.Full() }

// AboveHigh reports whether draining should start.
func (s *SecPB) AboveHigh() bool { return s.buf.AboveHigh() }

// AboveLow reports whether draining should continue.
func (s *SecPB) AboveLow() bool { return s.buf.AboveLow() }

// NWPE returns mean writes per drained entry.
func (s *SecPB) NWPE() float64 { return s.buf.NWPE() }

// Stats returns (stores accepted, entries allocated).
func (s *SecPB) Stats() (stores, allocs uint64) { return s.stores, s.allocs }

// EarlyWorkStats returns how often each early mechanism ran: BMT walks,
// OTP generations, MAC generations, ciphertext XORs.
func (s *SecPB) EarlyWorkStats() (bmtWalks, otps, macs, xors uint64) {
	return s.earlyBMT, s.earlyOTP, s.earlyMAC, s.earlyXOR
}

// Invalidations returns how many entries had prepared metadata dropped
// because of page re-encryptions.
func (s *SecPB) Invalidations() uint64 { return s.invalidated }

// Lookup returns the resident entry for a block, or nil. Loads that
// miss the L1 consult the SecPB before PM, since the buffer is
// memory-side and holds the freshest data.
func (s *SecPB) Lookup(b addr.Block) *Entry { return s.buf.Lookup(b) }

// AcceptStoreInit coalesces one store into the buffer and performs the
// scheme's early security-metadata work. asid tags a newly allocated
// entry with the storing process's address space (the drain-process
// application-crash policy needs the tag; drain-all ignores it); init,
// if non-nil, points at the block's current contents (copied only on
// allocation); and allocAt stamps the new entry's point-of-persistency
// cycle for the battery-exposure histogram. The accept cost fills the
// caller's out-param — AcceptCost embeds an nvm.Cost and returning it
// by value through two call layers was a measurable per-store copy. It
// returns pb.ErrFull when the buffer needs a drain first; the caller
// drains and retries.
func (s *SecPB) AcceptStoreInit(asid uint16, b addr.Block, off, size int, val uint64, init *[addr.BlockBytes]byte, allocAt uint64, cost *AcceptCost) error {
	entry, allocated, err := s.buf.WriteInit(asid, b, off, size, val, init)
	if err != nil {
		return err
	}
	if allocated {
		entry.AllocCycle = allocAt
	}
	return s.acceptEntry(entry, allocated, b, cost)
}

// CoalesceStore is the engine kernel's fast path for a store whose
// block already has a resident entry: the coalescing write plus the
// scheme's per-store (data-value-dependent) early work, with none of
// the allocation path's AcceptCost bookkeeping. It reports found=false
// — with no side effects — when the block has no resident entry, when
// the write is invalid, or under the DVI-coalescing ablation (which
// redoes per-entry work on every store); the caller then falls back to
// AcceptStoreInit, which re-checks everything and reports errors.
// xored/maced mirror AcceptCost.CipherXOR/MACGenerated for timing.
func (s *SecPB) CoalesceStore(b addr.Block, off, size int, val uint64) (found, xored, maced bool) {
	if s.cfg.DisableDVICoalescing {
		return false, false, false
	}
	e := s.buf.CoalesceWrite(b, off, size, val)
	if e == nil {
		return false, false, false
	}
	s.stores++
	if s.scheme == config.SchemeBBB {
		return true, false, false
	}
	if s.early.Ciphertext && e.Ext.OTPValid {
		crypto.XOR(&e.Ext.Cipher, &e.Data, &e.Ext.OTP)
		e.Ext.CipherValid = true
		s.earlyXOR++
		xored = true
	}
	if s.early.MAC && e.Ext.CipherValid {
		s.mc.MakeMACInto(&e.Ext.MAC, b, &e.Ext.Cipher, e.Ext.Counter)
		e.Ext.MACValid = true
		s.earlyMAC++
		maced = true
	}
	return true, xored, maced
}

// acceptEntry performs the scheme's early security-metadata work for a
// store just coalesced into entry, filling *cost.
func (s *SecPB) acceptEntry(entry *Entry, allocated bool, b addr.Block, cost *AcceptCost) error {
	s.stores++
	*cost = AcceptCost{Allocated: allocated}
	if allocated {
		s.allocs++
		if s.sink != nil {
			s.sink.CrashPoint(crashpoint.EntryAlloc, b)
		}
	}
	if s.scheme == config.SchemeBBB {
		return nil
	}

	// Per-entry (data-value-independent) early work, performed once at
	// allocation: Section IV.A's coalescing optimization. With the
	// optimization disabled (ablation), the work repeats on every store
	// and each store advances the counter, so a hot block burns through
	// its minor counter NWPE times faster.
	redo := allocated || s.cfg.DisableDVICoalescing
	if redo {
		if s.early.Counter {
			entry.Ext.CounterAdvance++
			ctr, c := s.mc.NextCounter(b)
			entry.Ext.Counter = ctr + uint64(entry.Ext.CounterAdvance) - 1
			entry.Ext.CounterValid = true
			cost.CtrCost = c
			cost.CounterStep = true
		}
		if s.early.OTP {
			s.mc.MakeOTPInto(&entry.Ext.OTP, b, entry.Ext.Counter)
			entry.Ext.OTPValid = true
			cost.OTPGenerated = true
			s.earlyOTP++
		}
		if s.early.BMT {
			c := s.mc.ChargeBMTWalk(b)
			entry.Ext.BMTDone = true
			cost.BMTLevels = c.BMTLevels
			cost.BMTNodeFetch = c.BMTNodeFetch
			s.earlyBMT++
		}
	}

	// Per-store (data-value-dependent) early work: ciphertext and MAC
	// must track every plaintext change.
	if s.early.Ciphertext && entry.Ext.OTPValid {
		crypto.XOR(&entry.Ext.Cipher, &entry.Data, &entry.Ext.OTP)
		entry.Ext.CipherValid = true
		cost.CipherXOR = true
		s.earlyXOR++
	}
	if s.early.MAC && entry.Ext.CipherValid {
		s.mc.MakeMACInto(&entry.Ext.MAC, b, &entry.Ext.Cipher, entry.Ext.Counter)
		entry.Ext.MACValid = true
		cost.MACGenerated = true
		s.earlyMAC++
	}
	return nil
}

// DrainOne removes the oldest entry and completes its memory tuple at
// the memory controller. It returns the drained entry (nil when empty)
// and the controller cost.
func (s *SecPB) DrainOne() (*Entry, nvm.Cost, error) {
	e := s.buf.DrainOldest()
	if e == nil {
		return nil, nvm.Cost{}, nil
	}
	cost, err := s.persistEntry(e)
	return e, cost, err
}

// persistEntry completes one removed entry's tuple at the MC, keeping it
// visible as in-flight battery-covered state for the duration.
func (s *SecPB) persistEntry(e *Entry) (nvm.Cost, error) {
	s.inflight = e
	e.Ext.preparedInto(&s.prep)
	cost, err := s.mc.PersistBlock(e.Block, &e.Data, &s.prep)
	s.inflight = nil
	return cost, err
}

// Recycle returns a fully-drained entry to the buffer's free list. The
// caller asserts it holds the only live reference: the drain loop may
// recycle an entry once its PersistBlock returned, because crash
// snapshots copy entries by value and the controller copies the data
// payload before returning.
func (s *SecPB) Recycle(e *Entry) { s.buf.Release(e) }

// InFlightDrain returns the entry currently mid-drain at the memory
// controller, or nil. Non-nil only while a drain's PersistBlock is
// executing — i.e. when observed from a crash-point callback.
func (s *SecPB) InFlightDrain() *Entry { return s.inflight }

// SetCrashSink installs (or, with nil, removes) the crash-injection
// sink receiving the SecPB's entry-allocation crash points.
func (s *SecPB) SetCrashSink(sink crashpoint.Sink) { s.sink = sink }

// AppendEntries appends value copies of the battery-covered entries at
// this instant to dst and returns the extended slice: the in-flight
// drain entry first (it was the FIFO head), then the resident entries
// oldest-first. This is the state a crash snapshot preserves alongside
// the NV image. dst grows at most once, to fit them all, so a caller
// that recycles its slice (dst[:0]) copies without allocating.
func (s *SecPB) AppendEntries(dst []Entry) []Entry {
	dst = slices.Grow(dst, s.buf.Len()+1)
	if s.inflight != nil {
		dst = append(dst, *s.inflight)
	}
	s.buf.Walk(func(e *Entry) { dst = append(dst, *e) })
	return dst
}

// RemoveForMigration extracts the entry for a block so it can migrate
// to another core's SecPB (a remote write request, Section IV.C). The
// data-value-independent metadata (counter, OTP, BMT-done bit) travels
// with the entry; the data-value-dependent fields are cleared because
// the requester will overwrite the data and must regenerate them.
func (s *SecPB) RemoveForMigration(b addr.Block) *Entry {
	e := s.buf.Remove(b)
	if e == nil {
		return nil
	}
	e.Ext.CipherValid = false
	e.Ext.MACValid = false
	return e
}

// AdoptMigrated inserts an entry migrated from another core's SecPB.
// Per the paper, migration avoids replication: the entry exists in
// exactly one SecPB afterwards, and the requester does not repeat the
// counter/OTP/BMT work the donor already performed. It returns
// pb.ErrFull when this buffer needs a drain first.
func (s *SecPB) AdoptMigrated(e *Entry) error {
	return s.buf.Insert(e)
}

// PopOldest removes and returns the oldest entry WITHOUT completing its
// memory tuple at the controller. Correct operation never does this; it
// exists so the recovery package can model broken crash handling (the
// recoverability gap of Figure 1b) and measure the resulting corruption.
func (s *SecPB) PopOldest() *Entry { return s.buf.DrainOldest() }

// FlushBlock force-drains a specific block (cache coherence: another
// core read or wrote an address resident here, or the observer requires
// the block persisted). Returns whether the block was resident.
func (s *SecPB) FlushBlock(b addr.Block) (bool, nvm.Cost, error) {
	e := s.buf.Remove(b)
	if e == nil {
		return false, nvm.Cost{}, nil
	}
	cost, err := s.persistEntry(e)
	return true, cost, err
}

// DrainProcess drains and sec-syncs only the entries belonging to the
// given address space — the drain-process policy for application
// crashes (Section III.B). Other processes' entries keep their place
// and coalescing opportunities. It returns the number of entries
// drained and the total controller cost.
func (s *SecPB) DrainProcess(asid uint16) (entries int, total nvm.Cost, err error) {
	for {
		e := s.buf.DrainOldestWhere(func(e *Entry) bool { return e.ASID == asid })
		if e == nil {
			// End of the sec-sync epoch: commit the staged BMT walks in
			// one coalesced sweep.
			s.mc.CompleteSweep()
			return entries, total, nil
		}
		cost, perr := s.persistEntry(e)
		if perr != nil {
			return entries, total, perr
		}
		entries++
		total.Add(cost)
	}
}

// CrashDrain drains every entry in allocation order, completing all
// tuples — the battery-powered procedure after a crash is detected. It
// returns the total controller cost (which the energy model prices).
func (s *SecPB) CrashDrain() (entries int, total nvm.Cost, err error) {
	for {
		e, cost, derr := s.DrainOne()
		if derr != nil {
			return entries, total, derr
		}
		if e == nil {
			// The battery-powered drain is one epoch: all staged BMT
			// walks commit in a single coalesced sweep before the
			// recovery observer inspects the image.
			s.mc.CompleteSweep()
			return entries, total, nil
		}
		entries++
		total.Add(cost)
	}
}

// invalidatePage drops prepared metadata for entries whose page was
// re-encrypted: the counter reset made their C/O/Dc/M values stale, so
// the drain path must regenerate them (the directory-based coherence of
// Section IV.C between metadata caches and SecPBs).
func (s *SecPB) invalidatePage(page uint64) {
	s.buf.Walk(func(e *Entry) {
		if e.Block.Page() != page {
			return
		}
		if e.Ext.CounterValid || e.Ext.OTPValid || e.Ext.CipherValid || e.Ext.MACValid || e.Ext.BMTDone {
			s.invalidated++
		}
		e.Ext = SecMeta{}
	})
}
