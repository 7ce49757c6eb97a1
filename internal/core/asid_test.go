package core

import (
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
)

func TestDrainProcessOnlyDrainsOwnEntries(t *testing.T) {
	s, mc := newSecPB(t, config.SchemeCOBCM)
	// Two processes interleave entries in the same per-core SecPB.
	for i := uint64(0); i < 4; i++ {
		if _, err := accept(s, 1, addr.FromIndex(0x100+i), 0, 8, i); err != nil {
			t.Fatal(err)
		}
		if _, err := accept(s, 2, addr.FromIndex(0x200+i), 0, 8, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 8 {
		t.Fatalf("resident = %d", s.Len())
	}
	n, _, err := s.DrainProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("drain-process drained %d entries, want 4", n)
	}
	if s.Len() != 4 {
		t.Errorf("resident after drain-process = %d, want 4", s.Len())
	}
	// Process 1's blocks are persisted and verifiable.
	for i := uint64(0); i < 4; i++ {
		got, _, err := mc.FetchBlock(addr.FromIndex(0x100 + i))
		if err != nil {
			t.Fatalf("process-1 block %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Errorf("process-1 block %d wrong plaintext", i)
		}
	}
	// Process 2's entries are untouched (still coalescing-eligible).
	for i := uint64(0); i < 4; i++ {
		if s.Lookup(addr.FromIndex(0x200+i)) == nil {
			t.Errorf("process-2 block %d was drained by drain-process(1)", i)
		}
	}
}

func TestDrainProcessPreservesOrder(t *testing.T) {
	s, _ := newSecPB(t, config.SchemeCOBCM)
	blocks := []addr.Block{addr.FromIndex(9), addr.FromIndex(3), addr.FromIndex(7)}
	for i, b := range blocks {
		if _, err := accept(s, 5, b, 0, 8, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Interject another process's entry between them.
	if _, err := accept(s, 6, addr.FromIndex(99), 0, 8, 0); err != nil {
		t.Fatal(err)
	}
	var drained []addr.Block
	for {
		e := s.buf.DrainOldestWhere(func(e *Entry) bool { return e.ASID == 5 })
		if e == nil {
			break
		}
		drained = append(drained, e.Block)
	}
	if len(drained) != 3 {
		t.Fatalf("drained %d", len(drained))
	}
	for i, b := range blocks {
		if drained[i] != b {
			t.Errorf("drain order[%d] = %v, want %v (persist order invariant)", i, drained[i], b)
		}
	}
}

func TestCoalescingDoesNotRetag(t *testing.T) {
	s, _ := newSecPB(t, config.SchemeCOBCM)
	b := addr.FromIndex(0x42)
	accept(s, 7, b, 0, 8, 1)
	accept(s, 8, b, 8, 8, 2) // shared-memory write by asid 8
	if e := s.Lookup(b); e.ASID != 7 {
		t.Errorf("entry re-tagged to %d, want allocator's 7", e.ASID)
	}
	// Drain-process for the allocator includes the coalesced data.
	n, _, err := s.DrainProcess(7)
	if err != nil || n != 1 {
		t.Fatalf("drain = %d, %v", n, err)
	}
}

func TestAcceptStoreDefaultsToASIDZero(t *testing.T) {
	s, _ := newSecPB(t, config.SchemeCOBCM)
	accept(s, 0, addr.FromIndex(1), 0, 8, 1)
	if e := s.Lookup(addr.FromIndex(1)); e.ASID != 0 {
		t.Errorf("default ASID = %d", e.ASID)
	}
}
