// Race-detector instrumentation itself allocates, so these exact-zero
// pins only hold on uninstrumented builds; ci.sh runs them in a
// dedicated non-race pass.
//go:build !race

package crypto

import "testing"

// TestMACIntoZeroAlloc pins the per-block MAC on the drain path to
// zero heap allocations: MACInto writes through caller-owned buffers
// and the engine's preallocated hasher state.
func TestMACIntoZeroAlloc(t *testing.T) {
	e, err := NewEngine([]byte("alloc test key"))
	if err != nil {
		t.Fatal(err)
	}
	var cipher [CacheLineSize]byte
	for i := range cipher {
		cipher[i] = byte(i)
	}
	var mac [MACSize]byte
	ctr := uint64(0)
	if avg := testing.AllocsPerRun(20_000, func() {
		e.MACInto(&mac, &cipher, 0x40*ctr, ctr)
		ctr++
	}); avg != 0 {
		t.Fatalf("MACInto allocates: %g allocs/op", avg)
	}
}

// TestMemoizedHashZeroAlloc pins the memoized MAC, node hash and pad to
// zero heap allocations, on hits and on misses: the memo's tables and
// key scratch are allocated when it is built.
func TestMemoizedHashZeroAlloc(t *testing.T) {
	e, err := NewEngine([]byte("alloc test key"))
	if err != nil {
		t.Fatal(err)
	}
	e.SetMemo(NewHashMemo(16))
	var cipher [CacheLineSize]byte
	var mac [MACSize]byte
	var pad [CacheLineSize]byte
	node := make([]byte, 72)
	ctr := uint64(0)
	if avg := testing.AllocsPerRun(20_000, func() {
		e.MACInto(&mac, &cipher, 0x40*(ctr%32), ctr%32)
		e.OTPInto(&pad, 0x40*(ctr%32), ctr%32)
		node[0] = byte(ctr % 32)
		e.HashNode(node)
		ctr++
	}); avg != 0 {
		t.Fatalf("memoized hashing allocates: %g allocs/op", avg)
	}
}
