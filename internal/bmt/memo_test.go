package bmt

import (
	"fmt"
	"testing"
)

// Pages for the verified-path memo tests on a height-4 tree: A and B
// are sibling leaves (one level-1 parent, so every interior node of A's
// path is on B's), and C sits in another top-level subtree, so a sweep
// touching B and C rewrites two disjoint paths below the root.
const (
	memoPageA = 3
	memoPageB = 4
	memoPageC = 3000
)

// memoMajor is the major counter memoTree gives each page.
var memoMajor = map[uint64]uint64{memoPageA: 1, memoPageB: 2, memoPageC: 3}

func memoTree(t *testing.T) (*Tree, map[uint64][]byte) {
	t.Helper()
	tr, _ := newTestTree(t, 4)
	lines := map[uint64][]byte{
		memoPageA: lineBytes(memoMajor[memoPageA], 1),
		memoPageB: lineBytes(memoMajor[memoPageB], 2),
		memoPageC: lineBytes(memoMajor[memoPageC], 3),
	}
	for p, l := range lines {
		tr.Update(p, l)
	}
	tr.Sweep()
	if err := tr.Verify(memoPageA, lines[memoPageA]); err != nil {
		t.Fatalf("verify A: %v", err)
	}
	if len(tr.verified) == 0 {
		t.Fatal("a successful Verify memoized nothing")
	}
	return tr, lines
}

// TestVerifyMemoDroppedOnTamper verifies page A, then tampers each
// interior node A's path shares with B's: Verify(B) must fail even
// where B's climb would otherwise stop at a node A's check memoized
// below the tampered one.
func TestVerifyMemoDroppedOnTamper(t *testing.T) {
	for level := 1; level < 4; level++ {
		t.Run(fmt.Sprintf("level%d", level), func(t *testing.T) {
			tr, lines := memoTree(t)
			idx := uint64(memoPageB)
			for l := 0; l < level; l++ {
				idx /= Arity
			}
			if idx != uint64(memoPageA)>>(3*level) {
				t.Fatalf("level %d node %d is not shared by A and B", level, idx)
			}
			if err := tr.Tamper(level, idx, Digest{0xFF}); err != nil {
				t.Fatal(err)
			}
			if err := tr.Verify(memoPageB, lines[memoPageB]); err == nil {
				t.Fatalf("tampered shared node (%d,%d) accepted on B's path", level, idx)
			}
			if err := tr.Verify(memoPageA, lines[memoPageA]); err == nil {
				t.Fatalf("tampered shared node (%d,%d) accepted on A's path", level, idx)
			}
		})
	}
}

// TestVerifyMemoDroppedOnSweep verifies page A, then updates and sweeps
// its sibling B (alone, or with C in another subtree): the sweep must
// drop the memo, so that a stored parent left stale by a lost write —
// modeled by restoring its pre-sweep value behind the tree's back — is
// caught on A's next check instead of being skipped as proven.
func TestVerifyMemoDroppedOnSweep(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pages []uint64
	}{
		{"siblingOnly", []uint64{memoPageB}},
		{"siblingAndOtherSubtree", []uint64{memoPageB, memoPageC}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, lines := memoTree(t)
			parent := uint64(memoPageA) / Arity
			stale := *tr.levels[1].Lookup(parent)
			sweep := func(version byte) {
				for _, p := range tc.pages {
					tr.Update(p, lineBytes(memoMajor[p], version))
				}
				tr.Sweep()
			}

			sweep(9)
			if len(tr.verified) != 0 {
				t.Fatalf("sweep left %d memoized nodes", len(tr.verified))
			}
			if *tr.levels[1].Lookup(parent) == stale {
				t.Fatal("sweep did not rewrite the shared parent")
			}
			if err := tr.Verify(memoPageA, lines[memoPageA]); err != nil {
				t.Fatalf("verify A after the sibling's sweep: %v", err)
			}

			sweep(10)
			*tr.levels[1].Lookup(parent) = stale
			if err := tr.Verify(memoPageA, lines[memoPageA]); err == nil {
				t.Fatal("stale stored parent accepted after a sweep")
			}
		})
	}
}

// TestVerifyMemoKeepsVerdicts checks the memo is pure: once every path
// is memoized, a wrong counter line is still rejected by the per-call
// leaf check, and a fresh snapshot (no memo) gives the same verdicts.
func TestVerifyMemoKeepsVerdicts(t *testing.T) {
	tr, lines := memoTree(t)
	for p, l := range lines {
		if err := tr.Verify(p, l); err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
	}
	fresh := tr.Snapshot()
	for p, l := range lines {
		wrong := append([]byte(nil), l...)
		wrong[len(wrong)-1] ^= 1
		for _, tree := range []*Tree{tr, fresh} {
			if err := tree.Verify(p, l); err != nil {
				t.Fatalf("page %d: %v", p, err)
			}
			if err := tree.Verify(p, wrong); err == nil {
				t.Fatalf("page %d: wrong counter line accepted", p)
			}
		}
	}
	recycled := tr.SnapshotInto(fresh)
	if recycled != fresh || len(recycled.verified) != 0 {
		t.Fatal("SnapshotInto kept the destination's memo")
	}
}
