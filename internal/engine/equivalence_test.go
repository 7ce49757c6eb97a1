package engine

import (
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/trace"
	"secpb/internal/workload"
	"secpb/internal/xrand"
)

// refInterp is the executable specification of the persistent state: a
// plain map applying every store in order.
func refInterp(ops []trace.Op) map[addr.Block][addr.BlockBytes]byte {
	mem := map[addr.Block][addr.BlockBytes]byte{}
	for _, op := range ops {
		if op.Kind != trace.Store {
			continue
		}
		b := addr.BlockOf(op.Addr)
		cur := mem[b]
		off := int(op.Addr - b.Addr())
		for i := 0; i < int(op.Size); i++ {
			cur[off+i] = byte(op.Data >> (8 * i))
		}
		mem[b] = cur
	}
	return mem
}

// TestCrossSchemeFunctionalEquivalence is the whole-system property:
// for the same op stream, every scheme (and the SP baseline) must leave
// PM in a state that decrypts and verifies to exactly the reference
// interpreter's final memory. Timing may differ wildly; plaintext must
// not.
func TestCrossSchemeFunctionalEquivalence(t *testing.T) {
	prof := mustProfile(t, "gcc")
	ops, err := workload.Generate(prof, 0xE71, 4000)
	if err != nil {
		t.Fatal(err)
	}
	want := refInterp(ops)
	if len(want) == 0 {
		t.Fatal("reference state empty")
	}
	for _, scheme := range config.AllSchemes() {
		cfg := config.Default().WithScheme(scheme)
		e, err := New(cfg, prof, []byte("equiv"))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunBatch(trace.NewSliceBatchSource(ops)); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if spb := e.SecPB(); spb != nil {
			if _, _, err := spb.CrashDrain(); err != nil {
				t.Fatalf("%v: %v", scheme, err)
			}
		}
		for block, wantData := range want {
			got, _, err := e.Controller().FetchBlock(block)
			if err != nil {
				t.Fatalf("%v: block %#x: %v", scheme, block.Addr(), err)
			}
			if got != wantData {
				t.Fatalf("%v: block %#x diverges from reference interpreter", scheme, block.Addr())
			}
		}
	}
}

// TestRandomTraceEquivalence drives random op streams (not workload-
// shaped) through random schemes against the reference interpreter.
func TestRandomTraceEquivalence(t *testing.T) {
	r := xrand.New(0x5EED)
	prof := mustProfile(t, "mcf")
	for trial := 0; trial < 6; trial++ {
		scheme := config.SecPBSchemes()[trial%6]
		var ops []trace.Op
		nblocks := 8 + r.Intn(60)
		for i := 0; i < 1500; i++ {
			size := uint8(1) << r.Intn(4)
			a := 0x10000000 + uint64(r.Intn(nblocks))*64 + (r.Uint64()%64)&^(uint64(size)-1)
			if r.Bool(0.7) {
				ops = append(ops, trace.Op{Kind: trace.Store, Addr: a, Size: size,
					Data: r.Uint64() & (1<<(8*size) - 1), Gap: uint32(r.Intn(10))})
			} else {
				ops = append(ops, trace.Op{Kind: trace.Load, Addr: a, Size: size, Gap: uint32(r.Intn(10))})
			}
		}
		want := refInterp(ops)
		cfg := config.Default().WithScheme(scheme).WithSecPBEntries(8)
		e, err := New(cfg, prof, []byte("rand"))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunBatch(trace.NewSliceBatchSource(ops)); err != nil {
			t.Fatalf("trial %d %v: %v", trial, scheme, err)
		}
		if _, _, err := e.SecPB().CrashDrain(); err != nil {
			t.Fatal(err)
		}
		for block, wantData := range want {
			got, _, err := e.Controller().FetchBlock(block)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, scheme, err)
			}
			if got != wantData {
				t.Fatalf("trial %d %v: block %#x diverges (sub-word merging broken?)", trial, scheme, block.Addr())
			}
		}
	}
}

// TestEpochFencesNearlyFree demonstrates the persistent-hierarchy
// programmability claim: under SecPB, strict persistency makes fences
// redundant, so sprinkling epoch boundaries through a workload must not
// change performance materially (they only drain the store buffer).
func TestEpochFencesNearlyFree(t *testing.T) {
	prof := mustProfile(t, "gcc")
	ops, err := workload.Generate(prof, 3, 20000)
	if err != nil {
		t.Fatal(err)
	}
	var fenced []trace.Op
	for i, op := range ops {
		fenced = append(fenced, op)
		if i%50 == 49 {
			fenced = append(fenced, trace.Op{Kind: trace.Fence})
		}
	}
	run := func(stream []trace.Op) uint64 {
		e, err := New(config.Default(), prof, []byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunBatch(trace.NewSliceBatchSource(stream)); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	plain := run(ops)
	withFences := run(fenced)
	slow := float64(withFences)/float64(plain) - 1
	if slow > 0.05 {
		t.Errorf("400 epoch fences cost %.1f%% under COBCM; persistent hierarchy should make them nearly free", slow*100)
	}
}
