package core

import (
	"errors"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/nvm"
	"secpb/internal/pb"
)

func newSecPB(t *testing.T, scheme config.Scheme) (*SecPB, *nvm.Controller) {
	t.Helper()
	cfg := config.Default().WithScheme(scheme)
	mc, err := nvm.NewController(cfg, []byte("test"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, mc)
	if err != nil {
		t.Fatal(err)
	}
	return s, mc
}

// accept is AcceptStoreInit with no initial contents and no allocation
// stamp, returning the accept cost.
func accept(s *SecPB, asid uint16, b addr.Block, off, size int, val uint64) (AcceptCost, error) {
	var cost AcceptCost
	err := s.AcceptStoreInit(asid, b, off, size, val, nil, 0, &cost)
	return cost, err
}

func TestEarlyWorkPerScheme(t *testing.T) {
	cases := []struct {
		scheme                    config.Scheme
		wantCtr, wantOTP, wantBMT bool
		wantXOR, wantMAC          bool
	}{
		{config.SchemeNoGap, true, true, true, true, true},
		{config.SchemeM, true, true, true, true, false},
		{config.SchemeCM, true, true, true, false, false},
		{config.SchemeBCM, true, true, false, false, false},
		{config.SchemeOBCM, true, false, false, false, false},
		{config.SchemeCOBCM, false, false, false, false, false},
	}
	for _, tc := range cases {
		s, _ := newSecPB(t, tc.scheme)
		cost, err := accept(s, 0, addr.BlockOf(0x1000), 0, 8, 42)
		if err != nil {
			t.Fatalf("%v: %v", tc.scheme, err)
		}
		if !cost.Allocated {
			t.Fatalf("%v: first store did not allocate", tc.scheme)
		}
		if cost.CounterStep != tc.wantCtr {
			t.Errorf("%v: counter early = %v, want %v", tc.scheme, cost.CounterStep, tc.wantCtr)
		}
		if cost.OTPGenerated != tc.wantOTP {
			t.Errorf("%v: OTP early = %v, want %v", tc.scheme, cost.OTPGenerated, tc.wantOTP)
		}
		if (cost.BMTLevels > 0) != tc.wantBMT {
			t.Errorf("%v: BMT early levels = %d, want early=%v", tc.scheme, cost.BMTLevels, tc.wantBMT)
		}
		if cost.CipherXOR != tc.wantXOR {
			t.Errorf("%v: XOR early = %v, want %v", tc.scheme, cost.CipherXOR, tc.wantXOR)
		}
		if cost.MACGenerated != tc.wantMAC {
			t.Errorf("%v: MAC early = %v, want %v", tc.scheme, cost.MACGenerated, tc.wantMAC)
		}
	}
}

func TestCoalescingOptimization(t *testing.T) {
	// Section IV.A: counter/OTP/BMT once per dirty entry; ciphertext and
	// MAC per store (NoGap).
	s, _ := newSecPB(t, config.SchemeNoGap)
	b := addr.BlockOf(0x2000)
	for i := 0; i < 5; i++ {
		cost, err := accept(s, 0, b, i*8, 8, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && !cost.Allocated {
			t.Fatal("first store must allocate")
		}
		if i > 0 {
			if cost.Allocated || cost.CounterStep || cost.OTPGenerated || cost.BMTLevels > 0 {
				t.Errorf("store %d redid per-entry work: %+v", i, cost)
			}
			if !cost.CipherXOR || !cost.MACGenerated {
				t.Errorf("store %d skipped per-store work: %+v", i, cost)
			}
		}
	}
	bmtWalks, otps, macs, xors := s.EarlyWorkStats()
	if bmtWalks != 1 || otps != 1 {
		t.Errorf("per-entry work ran %d/%d times, want 1/1", bmtWalks, otps)
	}
	if macs != 5 || xors != 5 {
		t.Errorf("per-store work ran %d/%d times, want 5/5", macs, xors)
	}
}

func TestDrainRoundTripAllSchemes(t *testing.T) {
	for _, scheme := range config.SecPBSchemes() {
		s, mc := newSecPB(t, scheme)
		b := addr.BlockOf(0x3000)
		var want [addr.BlockBytes]byte
		for i := 0; i < 8; i++ {
			if _, err := accept(s, 0, b, i*8, 8, uint64(i)+1000); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 8; j++ {
				want[i*8+j] = byte((uint64(i) + 1000) >> (8 * j))
			}
		}
		e, _, err := s.DrainOne()
		if err != nil {
			t.Fatalf("%v: drain: %v", scheme, err)
		}
		if e == nil || e.Block != b {
			t.Fatalf("%v: drained %v", scheme, e)
		}
		got, _, err := mc.FetchBlock(b)
		if err != nil {
			t.Fatalf("%v: fetch after drain: %v", scheme, err)
		}
		if got != want {
			t.Errorf("%v: recovered plaintext mismatch", scheme)
		}
	}
}

func TestDrainCostReflectsEagerness(t *testing.T) {
	// A COBCM drain must pay for OTP and a full BMT walk; a NoGap drain
	// must pay for neither.
	lazy, _ := newSecPB(t, config.SchemeCOBCM)
	eager, _ := newSecPB(t, config.SchemeNoGap)
	b := addr.BlockOf(0x4000)
	accept(lazy, 0, b, 0, 8, 1)
	accept(eager, 0, b, 0, 8, 1)
	_, lazyCost, err := lazy.DrainOne()
	if err != nil {
		t.Fatal(err)
	}
	_, eagerCost, err := eager.DrainOne()
	if err != nil {
		t.Fatal(err)
	}
	if lazyCost.AESOps != 1 || lazyCost.BMTLevels != 8 || lazyCost.Hashes < 9 {
		t.Errorf("lazy drain cost = %+v, want full tuple work", lazyCost)
	}
	if eagerCost.AESOps != 0 || eagerCost.BMTLevels != 0 || eagerCost.Hashes != 0 {
		t.Errorf("eager drain cost = %+v, want no recompute", eagerCost)
	}
}

func TestFullBufferRejectsNewBlocks(t *testing.T) {
	cfg := config.Default().WithScheme(config.SchemeCOBCM).WithSecPBEntries(4)
	mc, _ := nvm.NewController(cfg, []byte("k"))
	s, err := New(cfg, mc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := accept(s, 0, addr.FromIndex(uint64(i)), 0, 8, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Full() {
		t.Fatal("not full")
	}
	_, err = accept(s, 0, addr.FromIndex(99), 0, 8, 0)
	if !errors.Is(err, pb.ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	// Coalescing into a resident block still succeeds when full.
	if _, err := accept(s, 0, addr.FromIndex(1), 8, 8, 0); err != nil {
		t.Errorf("coalescing on full buffer failed: %v", err)
	}
}

func TestCrashDrainPersistsEverything(t *testing.T) {
	for _, scheme := range config.SecPBSchemes() {
		s, mc := newSecPB(t, scheme)
		blocks := []addr.Block{addr.BlockOf(0x1000), addr.BlockOf(0x2000), addr.BlockOf(0x55C0)}
		for i, b := range blocks {
			if _, err := accept(s, 0, b, 0, 8, uint64(i)+7); err != nil {
				t.Fatal(err)
			}
		}
		n, _, err := s.CrashDrain()
		if err != nil {
			t.Fatalf("%v: crash drain: %v", scheme, err)
		}
		if n != len(blocks) {
			t.Fatalf("%v: drained %d entries, want %d", scheme, n, len(blocks))
		}
		if s.Len() != 0 {
			t.Fatalf("%v: buffer not empty after crash drain", scheme)
		}
		for i, b := range blocks {
			got, _, err := mc.FetchBlock(b)
			if err != nil {
				t.Fatalf("%v: block %d failed verification after crash drain: %v", scheme, i, err)
			}
			if got[0] != byte(i)+7 {
				t.Errorf("%v: block %d wrong plaintext", scheme, i)
			}
		}
	}
}

func TestFlushBlock(t *testing.T) {
	s, mc := newSecPB(t, config.SchemeCM)
	b := addr.BlockOf(0x6000)
	accept(s, 0, b, 0, 8, 0xAB)
	found, _, err := s.FlushBlock(b)
	if err != nil || !found {
		t.Fatalf("flush: found=%v err=%v", found, err)
	}
	if got, _, err := mc.FetchBlock(b); err != nil || got[0] != 0xAB {
		t.Errorf("fetch after flush: %v err=%v", got[0], err)
	}
	found, _, err = s.FlushBlock(b)
	if err != nil || found {
		t.Error("second flush found the block again")
	}
}

func TestLookupServesResidentBlock(t *testing.T) {
	s, _ := newSecPB(t, config.SchemeCOBCM)
	b := addr.BlockOf(0x7000)
	accept(s, 0, b, 0, 8, 0xCD)
	e := s.Lookup(b)
	if e == nil || e.Data[0] != 0xCD {
		t.Fatal("Lookup missed resident block")
	}
	if s.Lookup(addr.BlockOf(0x8000)) != nil {
		t.Error("Lookup invented an entry")
	}
}

func TestReencryptionInvalidatesPreparedMeta(t *testing.T) {
	// Drive a sibling block's counter to overflow while an eager entry
	// is resident: the hook must clear its prepared metadata, and the
	// eventual drain must still produce verifiable state.
	cfg := config.Default().WithScheme(config.SchemeNoGap)
	mc, _ := nvm.NewController(cfg, []byte("k"))
	s, err := New(cfg, mc)
	if err != nil {
		t.Fatal(err)
	}
	hot := addr.BlockOf(0x9000)
	resident := addr.BlockOf(0x9040) // same page
	// Overflow needs 256 persists of hot.
	for i := 0; i < 255; i++ {
		if _, err := mc.PersistBlock(hot, &[addr.BlockBytes]byte{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := accept(s, 0, resident, 0, 8, 0x77); err != nil {
		t.Fatal(err)
	}
	if s.Lookup(resident).Ext.MACValid != true {
		t.Fatal("NoGap entry should have valid MAC")
	}
	// 256th persist triggers page re-encryption -> hook fires.
	if _, err := mc.PersistBlock(hot, &[addr.BlockBytes]byte{}, nil); err != nil {
		t.Fatal(err)
	}
	if s.Invalidations() != 1 {
		t.Fatalf("invalidations = %d, want 1", s.Invalidations())
	}
	if s.Lookup(resident).Ext.CounterValid {
		t.Error("stale prepared counter survived re-encryption")
	}
	// Drain and verify.
	if _, _, err := s.FlushBlock(resident); err != nil {
		t.Fatal(err)
	}
	got, _, err := mc.FetchBlock(resident)
	if err != nil || got[0] != 0x77 {
		t.Errorf("post-reencryption drain broken: %v err=%v", got[0], err)
	}
}

func TestBBBSchemeSkipsAllMetadata(t *testing.T) {
	s, mc := newSecPB(t, config.SchemeBBB)
	b := addr.BlockOf(0xA000)
	cost, err := accept(s, 0, b, 0, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cost.CounterStep || cost.OTPGenerated || cost.BMTLevels > 0 || cost.CipherXOR || cost.MACGenerated {
		t.Errorf("BBB performed security work: %+v", cost)
	}
	if _, _, err := s.DrainOne(); err != nil {
		t.Fatal(err)
	}
	if d, _ := mc.PM().Peek(b); d[0] != 5 {
		t.Error("BBB drain did not store plaintext")
	}
}

func TestNWPEAccounting(t *testing.T) {
	s, _ := newSecPB(t, config.SchemeCOBCM)
	b := addr.BlockOf(0xB000)
	for i := 0; i < 4; i++ {
		accept(s, 0, b, i*8, 8, 1)
	}
	accept(s, 0, addr.BlockOf(0xB040), 0, 8, 1)
	s.DrainOne()
	s.DrainOne()
	if got := s.NWPE(); got != 2.5 {
		t.Errorf("NWPE = %v, want 2.5 ((4+1)/2)", got)
	}
	stores, allocs := s.Stats()
	if stores != 5 || allocs != 2 {
		t.Errorf("stats = %d/%d", stores, allocs)
	}
}
