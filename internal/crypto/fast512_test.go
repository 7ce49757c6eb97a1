package crypto

import (
	"fmt"
	"testing"

	"secpb/internal/xrand"
)

// TestFastPathActive pins the stdlib midstate machinery: if crypto/sha512
// ever stops supporting state capture, NewEngine fails its self-check
// and returns an error, and this test makes that visible.
func TestFastPathActive(t *testing.T) {
	e, err := NewEngine([]byte("fast-path-probe"))
	if err != nil {
		t.Fatal(err)
	}
	if e.fast == nil || len(e.macMid) != stateLen || len(e.nodeMid) != stateLen {
		t.Fatal("engine built without its stdlib midstates")
	}
}

func TestMACMatchesReference(t *testing.T) {
	e, err := NewEngine([]byte("mac differential"))
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(11)
	for trial := 0; trial < 500; trial++ {
		var ct [CacheLineSize]byte
		for i := range ct {
			ct[i] = byte(r.Uint64())
		}
		addr := r.Uint64()
		ctr := r.Uint64()
		if fast, ref := e.MAC(&ct, addr, ctr), e.MACReference(&ct, addr, ctr); fast != ref {
			t.Fatalf("trial %d: fast MAC %x != reference %x", trial, fast[:8], ref[:8])
		}
	}
}

func TestHashNodeMatchesReference(t *testing.T) {
	e, err := NewEngine([]byte("node differential"))
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(13)
	// Sweep every length across the one-block/streaming boundary
	// (maxOneBlockTail = 111) and beyond a full second block.
	for n := 0; n <= 3*BlockBytes; n++ {
		children := make([]byte, n)
		for i := range children {
			children[i] = byte(r.Uint64())
		}
		if fast, ref := e.HashNode(children), e.HashNodeReference(children); fast != ref {
			t.Fatalf("length %d: fast HashNode != reference", n)
		}
	}
}

func TestMACConstructionIsKeyedMidstate(t *testing.T) {
	// The MAC must equal SHA-512(keyBlock || addr || ctr || ct) computed
	// from scratch — i.e. the midstate is an optimization, not a
	// construction change relative to the documented layout.
	e, err := NewEngine([]byte("construction check"))
	if err != nil {
		t.Fatal(err)
	}
	var ct [CacheLineSize]byte
	copy(ct[:], "construction check ciphertext")
	tag := e.MAC(&ct, 0x1234, 99)
	block := keyBlock(&e.macKey)
	msg := make([]byte, 0, BlockBytes+16+CacheLineSize)
	msg = append(msg, block[:]...)
	msg = append(msg, 0x34, 0x12, 0, 0, 0, 0, 0, 0) // addr LE
	msg = append(msg, 99, 0, 0, 0, 0, 0, 0, 0)      // ctr LE
	msg = append(msg, ct[:]...)
	if want := Sum512(msg); tag != want {
		t.Fatal("MAC does not equal the from-scratch keyed digest")
	}
}

func TestDeriveCacheSingleEviction(t *testing.T) {
	deriveMu.Lock()
	saved := deriveCache
	deriveCache = map[string]derived{}
	deriveMu.Unlock()
	defer func() {
		deriveMu.Lock()
		deriveCache = saved
		deriveMu.Unlock()
	}()

	size := func() int {
		deriveMu.RLock()
		defer deriveMu.RUnlock()
		return len(deriveCache)
	}
	for i := 0; i < deriveCacheMax; i++ {
		if _, err := NewEngine(fmt.Appendf(nil, "churn-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := size(); n != deriveCacheMax {
		t.Fatalf("cache holds %d entries, want %d", n, deriveCacheMax)
	}
	// The key past the bound must evict exactly one entry, not flush the
	// whole cache (the old behavior dropped every hot key mid-sweep).
	if _, err := NewEngine([]byte("one-past-the-bound")); err != nil {
		t.Fatal(err)
	}
	if n := size(); n != deriveCacheMax {
		t.Fatalf("cache holds %d entries after overflow, want %d (single eviction)", n, deriveCacheMax)
	}
	deriveMu.RLock()
	_, ok := deriveCache["one-past-the-bound"]
	deriveMu.RUnlock()
	if !ok {
		t.Error("newly derived key not cached after eviction")
	}
}

// FuzzMACFastVsReference differentially fuzzes the keyed-midstate MAC
// against the hand-rolled reference over arbitrary inputs.
func FuzzMACFastVsReference(f *testing.F) {
	f.Add([]byte("seed"), uint64(0x40), uint64(1))
	f.Add([]byte{}, uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, addr, ctr uint64) {
		e, err := NewEngine([]byte("fuzz mac key"))
		if err != nil {
			t.Fatal(err)
		}
		var ct [CacheLineSize]byte
		copy(ct[:], data)
		if fast, ref := e.MAC(&ct, addr, ctr), e.MACReference(&ct, addr, ctr); fast != ref {
			t.Fatalf("fast MAC != reference for addr %#x ctr %d", addr, ctr)
		}
	})
}

// FuzzHashNodeFastVsReference differentially fuzzes the fast SHA-512
// node hash (single-compression and streaming paths, split incrementally
// on the reference side) against the hand-rolled implementation at
// arbitrary lengths.
func FuzzHashNodeFastVsReference(f *testing.F) {
	f.Add([]byte("abc"), 1)
	f.Add(make([]byte, maxOneBlockTail), 0)
	f.Add(make([]byte, maxOneBlockTail+1), 50)
	f.Add(make([]byte, 4*BlockBytes), 200)
	f.Fuzz(func(t *testing.T, children []byte, split int) {
		e, err := NewEngine([]byte("fuzz node key"))
		if err != nil {
			t.Fatal(err)
		}
		fast := e.HashNode(children)
		if ref := e.HashNodeReference(children); fast != ref {
			t.Fatalf("fast HashNode != reference for %d bytes", len(children))
		}
		// Reference recomputed with an incremental split must agree too
		// (exercises the hand-rolled buffering that SumInto finalizes).
		if split < 0 {
			split = -split
		}
		if len(children) > 0 {
			split %= len(children) + 1
		} else {
			split = 0
		}
		block := keyBlock(&e.macKey, 0xB7)
		s := NewSHA512()
		s.Write(block[:])
		s.Write(children[:split])
		s.Write(children[split:])
		var inc [Size512]byte
		s.SumInto(&inc)
		if fast != inc {
			t.Fatalf("fast HashNode != incremental reference at split %d", split)
		}
	})
}

// FuzzOTPFastVsReference differentially fuzzes the stdlib-AES pad
// generator against the hand-rolled T-table reference over arbitrary
// (key, address, counter) triples: both compute the same AES-128, so
// every pad must match bit for bit.
func FuzzOTPFastVsReference(f *testing.F) {
	f.Add([]byte("seed"), uint64(0x1000_0000), uint64(1))
	f.Add([]byte{}, uint64(0), uint64(0))
	f.Add([]byte("secpb-experiment-key"), uint64(1)<<47, ^uint64(0))
	f.Fuzz(func(t *testing.T, key []byte, addr, ctr uint64) {
		e, err := NewEngine(key)
		if err != nil {
			t.Fatal(err)
		}
		if fast, ref := e.OTP(addr, ctr), e.OTPReference(addr, ctr); fast != ref {
			t.Fatalf("fast OTP != reference for addr %#x ctr %d", addr, ctr)
		}
	})
}
