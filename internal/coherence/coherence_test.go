package coherence

import (
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/xrand"
)

func newSystem(t *testing.T, scheme config.Scheme, cores int) *System {
	t.Helper()
	s, err := New(config.Default().WithScheme(scheme), cores, []byte("coh"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(config.Default(), 0, nil); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := New(config.Default().WithScheme(config.SchemeSP), 2, nil); err == nil {
		t.Error("SP baseline accepted")
	}
}

func TestRemoteWriteMigratesEntry(t *testing.T) {
	s := newSystem(t, config.SchemeCM, 2)
	a := uint64(0x10000000)
	if _, err := s.StoreEx(0, a, 8, 0x11); err != nil {
		t.Fatal(err)
	}
	if s.SecPB(0).Lookup(addr.BlockOf(a)) == nil {
		t.Fatal("core 0 does not hold the block after its store")
	}
	ctrBefore := s.SecPB(0).Lookup(addr.BlockOf(a)).Ext.Counter

	// Core 1 writes the same block: the entry must migrate, not copy.
	if _, err := s.StoreEx(1, a+8, 8, 0x22); err != nil {
		t.Fatal(err)
	}
	if s.SecPB(0).Lookup(addr.BlockOf(a)) != nil {
		t.Error("block replicated: still in core 0's SecPB")
	}
	e := s.SecPB(1).Lookup(addr.BlockOf(a))
	if e == nil {
		t.Fatal("block not in core 1's SecPB after migration")
	}
	// Data-value-independent metadata travelled with the entry.
	if !e.Ext.CounterValid || e.Ext.Counter != ctrBefore {
		t.Error("counter did not travel with the migrated entry")
	}
	if !e.Ext.BMTDone {
		t.Error("BMT-done bit did not travel (CM pays the walk once)")
	}
	// Both cores' writes are merged in the coalesced data.
	if e.Data[0] != 0x11 || e.Data[8] != 0x22 {
		t.Errorf("merged data wrong: % x", e.Data[:16])
	}
	migs, _ := s.Stats()
	if migs != 1 {
		t.Errorf("migrations = %d", migs)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRemoteReadFlushesToPM(t *testing.T) {
	s := newSystem(t, config.SchemeCOBCM, 2)
	a := uint64(0x20000000)
	if _, err := s.StoreEx(0, a, 8, 0xAB); err != nil {
		t.Fatal(err)
	}
	v, _, err := s.LoadEx(1, a)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 0xAB {
		t.Errorf("remote read value = %#x", v[0])
	}
	// The owner's entry left the SecPB and persisted.
	if s.SecPB(0).Lookup(addr.BlockOf(a)) != nil {
		t.Error("entry still in owner's SecPB after remote read")
	}
	got, _, err := s.Controller().FetchBlock(addr.BlockOf(a))
	if err != nil {
		t.Fatalf("flushed block fails verification: %v", err)
	}
	if got[0] != 0xAB {
		t.Error("flushed block has wrong plaintext in PM")
	}
	_, flushes := s.Stats()
	if flushes != 1 {
		t.Errorf("read flushes = %d", flushes)
	}
}

func TestLocalOpsNeedNoCoherence(t *testing.T) {
	s := newSystem(t, config.SchemeCOBCM, 2)
	a := uint64(0x30000000)
	if _, err := s.StoreEx(0, a, 8, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadEx(0, a); err != nil {
		t.Fatal(err)
	}
	migs, flushes := s.Stats()
	if migs != 0 || flushes != 0 {
		t.Errorf("local ops triggered coherence: %d/%d", migs, flushes)
	}
}

func TestLoadNeverWrittenBlock(t *testing.T) {
	s := newSystem(t, config.SchemeCOBCM, 2)
	v, _, err := s.LoadEx(1, 0x70000000)
	if err != nil {
		t.Fatal(err)
	}
	if v != ([addr.BlockBytes]byte{}) {
		t.Error("fresh block not zero")
	}
}

func TestNoReplicationUnderRandomSharing(t *testing.T) {
	// Property: under a random mix of stores and loads from 4 cores
	// over a small shared block set, no block is ever in two SecPBs and
	// the directory always matches residency.
	for _, scheme := range []config.Scheme{config.SchemeCOBCM, config.SchemeNoGap} {
		s := newSystem(t, scheme, 4)
		r := xrand.New(99)
		const blocks = 24
		for i := 0; i < 4000; i++ {
			corei := r.Intn(4)
			a := uint64(0x10000000) + uint64(r.Intn(blocks))*addr.BlockBytes + uint64(r.Intn(8))*8
			if r.Bool(0.6) {
				if _, err := s.StoreEx(corei, a, 8, r.Uint64()); err != nil {
					t.Fatalf("%v step %d: %v", scheme, i, err)
				}
			} else {
				if _, _, err := s.LoadEx(corei, a); err != nil {
					t.Fatalf("%v step %d: %v", scheme, i, err)
				}
			}
			if i%250 == 0 {
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("%v step %d: %v", scheme, i, err)
				}
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		migs, _ := s.Stats()
		if migs == 0 {
			t.Errorf("%v: random sharing produced no migrations", scheme)
		}
	}
}

func TestLoadsSeeLatestStoreAcrossCores(t *testing.T) {
	s := newSystem(t, config.SchemeCM, 3)
	a := uint64(0x40000000)
	for i := uint64(0); i < 30; i++ {
		writer := int(i % 3)
		if _, err := s.StoreEx(writer, a, 8, i); err != nil {
			t.Fatal(err)
		}
		reader := int((i + 1) % 3)
		v, _, err := s.LoadEx(reader, a)
		if err != nil {
			t.Fatal(err)
		}
		got := uint64(v[0]) | uint64(v[1])<<8 | uint64(v[2])<<16 | uint64(v[3])<<24
		if got != i&0xFFFFFFFF {
			t.Fatalf("iteration %d: read %d", i, got)
		}
	}
}

func TestMigrationUnderFullBuffer(t *testing.T) {
	// Migrating into a full SecPB must drain room, not fail or
	// replicate.
	cfg := config.Default().WithScheme(config.SchemeCOBCM).WithSecPBEntries(4)
	s, err := New(cfg, 2, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	// Fill core 1's buffer.
	for i := uint64(0); i < 4; i++ {
		if _, err := s.StoreEx(1, 0x50000000+i*addr.BlockBytes, 8, i); err != nil {
			t.Fatal(err)
		}
	}
	// Core 0 owns a block; core 1 then writes it -> migration into a
	// full buffer.
	if _, err := s.StoreEx(0, 0x60000000, 8, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StoreEx(1, 0x60000000, 8, 8); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := s.SecPB(1).Lookup(addr.BlockOf(0x60000000)); got == nil {
		t.Error("migration into full buffer failed")
	}
}

func TestBadCoreIDs(t *testing.T) {
	s := newSystem(t, config.SchemeCOBCM, 2)
	if _, err := s.StoreEx(5, 0x1000, 8, 1); err == nil {
		t.Error("out-of-range core accepted for store")
	}
	if _, _, err := s.LoadEx(-1, 0x1000); err == nil {
		t.Error("negative core accepted for load")
	}
}
