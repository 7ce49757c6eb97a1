// Race-detector instrumentation itself allocates, so this exact-zero
// pin only holds on uninstrumented builds; ci.sh runs it in a dedicated
// non-race pass.
//go:build !race

package core

import (
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
)

// TestAppendEntriesZeroAlloc pins crash-point capture of the battery-
// backed entries: appending a full SecPB into a recycled slice
// allocates nothing — no per-call slice, no visited set. One block is
// flushed and re-stored first, so the walk also skips a stale FIFO slot.
func TestAppendEntriesZeroAlloc(t *testing.T) {
	s, _ := newSecPB(t, config.SchemeCOBCM)
	for i := uint64(0); !s.Full(); i++ {
		if _, err := accept(s, 0, addr.FromIndex(3*i), 0, 8, i); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if ok, _, err := s.FlushBlock(addr.FromIndex(0)); !ok || err != nil {
				t.Fatalf("flush: resident %v, %v", ok, err)
			}
			if _, err := accept(s, 0, addr.FromIndex(0), 0, 8, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	dst := s.AppendEntries(nil)
	if len(dst) != s.Len() {
		t.Fatalf("appended %d entries from a SecPB holding %d", len(dst), s.Len())
	}
	if avg := testing.AllocsPerRun(1000, func() {
		dst = s.AppendEntries(dst[:0])
	}); avg != 0 {
		t.Fatalf("AppendEntries into a recycled slice allocates: %g allocs/op", avg)
	}
	if len(dst) != s.Len() {
		t.Fatalf("appended %d entries from a SecPB holding %d", len(dst), s.Len())
	}
}
