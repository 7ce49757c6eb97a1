// Package coherence implements the multi-core SecPB protocol of Section
// IV.C: each core owns a private SecPB, a MESI directory tracks every
// shared-region line (with Modified meaning "resident in exactly one
// SecPB"), and the two coherence situations the paper identifies are
// handled without ever replicating a block or its metadata across
// SecPBs:
//
//   - A remote READ flushes the owner's entry to PM (persisting data and
//     metadata) while the data is forwarded to the reader — the entry
//     leaves the persist-buffer domain and the line becomes Shared.
//   - A remote WRITE migrates the entry to the requesting core's SecPB.
//     The data-value-independent metadata (counter, OTP, BMT-done)
//     travels with it, so the requester regenerates only the ciphertext
//     and MAC its scheme computes eagerly.
//
// The protocol is the main simulation path for engine.System's shared
// coherent region: stores and Modified-line loads replay here at
// drain-epoch barriers in canonical core order, non-Modified loads are
// served in parallel against a frozen directory, and every transition
// returns a first-order timing charge (directory + interconnect +
// buffer port; the private data path keeps the full Figure-4 model).
package coherence

import (
	"errors"
	"fmt"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/core"
	"secpb/internal/crashpoint"
	"secpb/internal/nvm"
	"secpb/internal/pb"
	"secpb/internal/ptable"
)

// First-order timing charges for shared-region protocol actions, in
// core cycles. Directory and interconnect latencies are modelled at LLC
// scale (the directory co-locates with the shared cache), per-sharer
// invalidations at network-message scale.
const (
	DirAccessCyc = 20 // directory lookup/update
	LinkCyc      = 40 // one interconnect hop (data or entry transfer)
	InvalCyc     = 8  // per invalidation message
)

// Cost is the cycle charge and protocol activity of one shared-region
// operation.
type Cost struct {
	Cycles        uint64
	Migrated      bool
	Flushed       bool
	Invalidations int
}

// System is a set of cores sharing one memory-controller view of the
// shared coherent region, with a MESI directory over it.
type System struct {
	cfg   config.Config
	mc    *nvm.Controller
	cores []*core.SecPB
	dir   *Directory

	// view is the coherent program view across all cores (stores are
	// globally visible at the PoV, which coincides with the PoP). It is
	// stripe-locked so concurrently stepping cores may read non-Modified
	// lines during the parallel phase of an epoch.
	view *ptable.Sharded[[addr.BlockBytes]byte]

	migrations  uint64
	readFlushes uint64
}

// New builds a system with n cores.
func New(cfg config.Config, n int, key []byte) (*System, error) {
	if n <= 0 {
		return nil, fmt.Errorf("coherence: need at least one core, got %d", n)
	}
	if cfg.Scheme == config.SchemeSP {
		return nil, errors.New("coherence: SP baseline has no persist buffers")
	}
	mc, err := nvm.NewController(cfg, key)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:  cfg,
		mc:   mc,
		dir:  NewDirectory(),
		view: ptable.NewSharded[[addr.BlockBytes]byte](),
	}
	for i := 0; i < n; i++ {
		spb, err := core.New(cfg, mc)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, spb)
	}
	return s, nil
}

// Cores returns the number of cores.
func (s *System) Cores() int { return len(s.cores) }

// Controller returns the shared memory controller.
func (s *System) Controller() *nvm.Controller { return s.mc }

// SecPB returns core i's persist buffer.
func (s *System) SecPB(i int) *core.SecPB { return s.cores[i] }

// Directory returns the MESI directory.
func (s *System) Directory() *Directory { return s.dir }

// Memory returns the coherent program view as a map snapshot.
func (s *System) Memory() map[addr.Block][addr.BlockBytes]byte {
	out := make(map[addr.Block][addr.BlockBytes]byte, s.view.Len())
	s.view.Range(func(idx uint64, v [addr.BlockBytes]byte) bool {
		out[addr.FromIndex(idx)] = v
		return true
	})
	return out
}

// PeekView returns the coherent view of one block (stripe read lock;
// safe during the parallel phase, whose mutations are barrier-only).
func (s *System) PeekView(b addr.Block) ([addr.BlockBytes]byte, bool) {
	return s.view.Lookup(b.Index())
}

// Stats returns (entry migrations, read-triggered flushes).
func (s *System) Stats() (migrations, readFlushes uint64) {
	return s.migrations, s.readFlushes
}

// SetCrashSink installs (or removes) a crash-injection sink across every
// core's SecPB and the shared controller.
func (s *System) SetCrashSink(sink crashpoint.Sink) {
	for _, c := range s.cores {
		c.SetCrashSink(sink)
	}
	s.mc.SetCrashSink(sink)
}

// checkCore validates a core id.
func (s *System) checkCore(id int) error {
	if id < 0 || id >= len(s.cores) {
		return fmt.Errorf("coherence: core %d out of range [0,%d)", id, len(s.cores))
	}
	return nil
}

// makeRoom drains the oldest entry of core id until an allocation fits;
// each drained line leaves the persist-buffer domain (M→S).
func (s *System) makeRoom(id int) error {
	for s.cores[id].Full() {
		e, _, err := s.cores[id].DrainOne()
		if err != nil {
			return err
		}
		if e == nil {
			return errors.New("coherence: full SecPB with nothing to drain")
		}
		s.dir.DrainDemote(e.Block)
		s.cores[id].Recycle(e)
	}
	return nil
}

// StoreEx performs a write by core id through the MESI directory — the
// two-situation protocol of Section IV.C plus normal SecPB acceptance —
// and returns its timing charge. Serialized (barrier-only in
// engine.System).
func (s *System) StoreEx(id int, byteAddr uint64, size int, val uint64) (Cost, error) {
	var cc Cost
	if err := s.checkCore(id); err != nil {
		return cc, err
	}
	block := addr.BlockOf(byteAddr)
	off := int(byteAddr - block.Addr())

	act := s.dir.Write(id, block)
	cc.Cycles = DirAccessCyc + uint64(act.Invalidations)*InvalCyc
	cc.Invalidations = act.Invalidations

	if act.MigrateFrom >= 0 {
		// Remote write: migrate the entry, keeping data-value-
		// independent metadata.
		entry := s.cores[act.MigrateFrom].RemoveForMigration(block)
		if entry == nil {
			return cc, fmt.Errorf("coherence: directory says core %d owns %#x but entry missing", act.MigrateFrom, block.Addr())
		}
		if err := s.makeRoom(id); err != nil {
			return cc, err
		}
		if err := s.cores[id].AdoptMigrated(entry); err != nil {
			return cc, fmt.Errorf("coherence: adopting migrated entry: %w", err)
		}
		s.migrations++
		cc.Migrated = true
		cc.Cycles += LinkCyc + 2*s.cfg.SecPBAccessCyc
	}

	// Update the coherent view (PoV == PoP under persistent hierarchy).
	var cur [addr.BlockBytes]byte
	s.view.Update(block.Index(), func(p *[addr.BlockBytes]byte) {
		for i := 0; i < size; i++ {
			p[off+i] = byte(val >> (8 * i))
		}
		cur = *p
	})

	if act.MigrateFrom < 0 && !act.Hit {
		if err := s.makeRoom(id); err != nil {
			return cc, err
		}
	}
	var cost core.AcceptCost
	err := s.cores[id].AcceptStoreInit(0, block, off, size, val, &cur, 0, &cost)
	if errors.Is(err, pb.ErrFull) {
		if err := s.makeRoom(id); err != nil {
			return cc, err
		}
		err = s.cores[id].AcceptStoreInit(0, block, off, size, val, &cur, 0, &cost)
	}
	if err != nil {
		return cc, err
	}
	cc.Cycles += s.cfg.SecPBAccessCyc
	return cc, nil
}

// LoadEx performs a read by core id through the directory. If another
// core's SecPB owns the block (Modified), the owner's entry is flushed
// to PM in parallel with forwarding the data and the line becomes
// Shared. Serialized (barrier-only in engine.System).
func (s *System) LoadEx(id int, byteAddr uint64) ([addr.BlockBytes]byte, Cost, error) {
	var cc Cost
	if err := s.checkCore(id); err != nil {
		return [addr.BlockBytes]byte{}, cc, err
	}
	block := addr.BlockOf(byteAddr)
	act := s.dir.Read(id, block)
	cc.Cycles = DirAccessCyc
	if act.FlushFrom >= 0 {
		found, _, err := s.cores[act.FlushFrom].FlushBlock(block)
		if err != nil {
			return [addr.BlockBytes]byte{}, cc, err
		}
		if !found {
			return [addr.BlockBytes]byte{}, cc, fmt.Errorf("coherence: stale directory entry for %#x", block.Addr())
		}
		s.readFlushes++
		cc.Flushed = true
		cc.Cycles += LinkCyc + s.cfg.PMWriteCycles()
	} else if !act.Hit {
		cc.Cycles += LinkCyc
	}
	// Reads are served from the coherent view; if the block is in no
	// SecPB it is (or will be) in PM/caches.
	if v, ok := s.view.Lookup(block.Index()); ok {
		return v, cc, nil
	}
	// Never written: fetch from PM (zeros on fresh media).
	v, _, err := s.mc.FetchBlock(block)
	return v, cc, err
}

// CheckInvariants verifies the protocol's structural invariants: every
// Modified directory line points at a core actually holding the block,
// no block is resident in two SecPBs, and every resident block is a
// Modified line owned by that core.
func (s *System) CheckInvariants() error {
	owned := map[addr.Block]int{}
	for _, m := range s.dir.Modified() {
		if err := s.checkCore(m.Owner); err != nil {
			return err
		}
		if s.cores[m.Owner].Lookup(m.Block) == nil {
			return fmt.Errorf("coherence: directory points core %d at %#x but entry absent", m.Owner, m.Block.Addr())
		}
		owned[m.Block] = m.Owner
	}
	seen := map[addr.Block]int{}
	var blocks []addr.Block
	s.view.Range(func(idx uint64, _ [addr.BlockBytes]byte) bool {
		blocks = append(blocks, addr.FromIndex(idx))
		return true
	})
	for id := range s.cores {
		for _, block := range blocks {
			if s.cores[id].Lookup(block) != nil {
				if prev, dup := seen[block]; dup {
					return fmt.Errorf("coherence: block %#x replicated in SecPBs %d and %d", block.Addr(), prev, id)
				}
				seen[block] = id
				if owner, ok := owned[block]; !ok || owner != id {
					return fmt.Errorf("coherence: block %#x resident in core %d but directory disagrees (owner %d, tracked %v)", block.Addr(), id, owner, ok)
				}
			}
		}
	}
	return nil
}

// CrashDrainAll drains every core's SecPB in ascending core order (the
// canonical cross-core replay order; the battery backs them all) and
// returns the total entries drained. Every Modified line lands in PM.
func (s *System) CrashDrainAll() (int, error) {
	total := 0
	for id, c := range s.cores {
		n, _, err := c.CrashDrain()
		if err != nil {
			return total, fmt.Errorf("coherence: core %d crash drain: %w", id, err)
		}
		total += n
	}
	s.dir.DemoteAll()
	return total, nil
}
