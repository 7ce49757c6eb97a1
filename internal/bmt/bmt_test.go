package bmt

import (
	"testing"

	"secpb/internal/config"
	"secpb/internal/crypto"
	"secpb/internal/meta"
)

func newTestTree(t *testing.T, height int) (*Tree, *crypto.Engine) {
	t.Helper()
	e, err := crypto.NewEngine([]byte("bmt test"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(e, height)
	if err != nil {
		t.Fatal(err)
	}
	return tr, e
}

func lineBytes(major uint64, minors ...uint8) []byte {
	cl := &meta.CounterLine{Major: major}
	copy(cl.Minors[:], minors)
	return cl.Bytes()
}

func TestNewRejectsBadHeight(t *testing.T) {
	e, _ := crypto.NewEngine([]byte("k"))
	for _, h := range []int{0, -1, 25} {
		if _, err := New(e, h); err == nil {
			t.Errorf("height %d accepted", h)
		}
	}
}

func TestCapacity(t *testing.T) {
	tr, _ := newTestTree(t, 4)
	if tr.Capacity() != 8*8*8*8 {
		t.Errorf("capacity = %d, want 4096", tr.Capacity())
	}
	if tr.Height() != 4 {
		t.Errorf("height = %d", tr.Height())
	}
}

func TestUpdateChangesRoot(t *testing.T) {
	tr, _ := newTestTree(t, 4)
	r0 := tr.Root()
	n := tr.Update(5, lineBytes(0, 1))
	if n != 4 {
		t.Errorf("Update hashed %d levels, want 4", n)
	}
	if tr.Root() == r0 {
		t.Error("root unchanged after update")
	}
	if tr.Updates() != 1 {
		t.Errorf("Updates = %d", tr.Updates())
	}
}

func TestVerifyAfterUpdate(t *testing.T) {
	tr, _ := newTestTree(t, 4)
	line := lineBytes(0, 1, 2, 3)
	tr.Update(17, line)
	if err := tr.Verify(17, line); err != nil {
		t.Fatalf("verify of fresh update failed: %v", err)
	}
}

func TestVerifyManyPages(t *testing.T) {
	tr, _ := newTestTree(t, 5)
	lines := map[uint64][]byte{}
	for p := uint64(0); p < 200; p += 7 {
		l := lineBytes(p, uint8(p), uint8(p+1))
		tr.Update(p, l)
		lines[p] = l
	}
	for p, l := range lines {
		if err := tr.Verify(p, l); err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
	}
}

func TestRollbackDetected(t *testing.T) {
	// Replay attack: present an older counter line with its (then
	// valid) value. The tree must reject it because the leaf has moved.
	tr, _ := newTestTree(t, 4)
	oldLine := lineBytes(0, 1)
	newLine := lineBytes(0, 2)
	tr.Update(9, oldLine)
	tr.Update(9, newLine)
	if err := tr.Verify(9, oldLine); err == nil {
		t.Fatal("rolled-back counter line accepted")
	}
	if err := tr.Verify(9, newLine); err != nil {
		t.Fatalf("current line rejected: %v", err)
	}
}

func TestNodeTamperDetected(t *testing.T) {
	tr, _ := newTestTree(t, 4)
	line := lineBytes(1, 5)
	tr.Update(3, line)
	var evil Digest
	evil[0] = 0xFF
	// Tamper each materialized level on the path; every one must break
	// verification.
	for level := 0; level < tr.Height(); level++ {
		snap := tr.Snapshot()
		idx := uint64(3)
		for l := 0; l < level; l++ {
			idx /= Arity
		}
		if err := snap.Tamper(level, idx, evil); err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if err := snap.Verify(3, line); err == nil {
			t.Errorf("tamper at level %d undetected", level)
		}
	}
}

func TestConsistentPathTamperDetectedByRoot(t *testing.T) {
	// An attacker who rewrites the leaf AND recomputes every ancestor
	// consistently still fails: the root register is on-chip.
	tr, e := newTestTree(t, 3)
	tr.Update(2, lineBytes(0, 1))
	forged := lineBytes(0, 9)
	// Build a fully consistent forged tree, then restore the real root
	// register (the attacker cannot touch it).
	forgedTree := tr.Snapshot()
	forgedTree.Update(2, forged)
	forgedTree.Sweep() // commit the forgery before poking the register
	realRoot := tr.Root()
	forgedTree.root = realRoot
	if err := forgedTree.Verify(2, forged); err == nil {
		t.Fatal("consistent path forgery accepted despite root register")
	}
	_ = e
}

func TestTamperErrors(t *testing.T) {
	tr, _ := newTestTree(t, 3)
	var h Digest
	if err := tr.Tamper(9, 0, h); err == nil {
		t.Error("out-of-range level accepted")
	}
	if err := tr.Tamper(0, 5, h); err == nil {
		t.Error("unmaterialized node accepted")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	tr, _ := newTestTree(t, 4)
	line1 := lineBytes(0, 1)
	tr.Update(1, line1)
	snap := tr.Snapshot()
	line2 := lineBytes(0, 2)
	tr.Update(1, line2)
	if err := snap.Verify(1, line1); err != nil {
		t.Errorf("snapshot lost state: %v", err)
	}
	if err := snap.Verify(1, line2); err == nil {
		t.Error("snapshot sees post-snapshot update")
	}
}

func TestPathNodeIDs(t *testing.T) {
	tr, _ := newTestTree(t, 4)
	ids := tr.PathNodeIDs(100)
	if len(ids) != 4 {
		t.Fatalf("path length = %d", len(ids))
	}
	seen := map[uint64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Error("duplicate node id on path")
		}
		seen[id] = true
	}
	// Sibling pages (same parent) share all but the leaf ID.
	a := tr.PathNodeIDs(0)
	b := tr.PathNodeIDs(1)
	if a[0] == b[0] {
		t.Error("distinct leaves share leaf id")
	}
	if a[1] != b[1] {
		t.Error("sibling leaves do not share parent id")
	}
}

func TestDistantPagesShareRootChild(t *testing.T) {
	tr, _ := newTestTree(t, 3)
	// Pages 0 and 63 are within the same 64-leaf subtree at level 2.
	a := tr.PathNodeIDs(0)
	b := tr.PathNodeIDs(63)
	if a[2] != b[2] {
		t.Error("pages 0 and 63 should share the level-2 ancestor in an arity-8 tree")
	}
}

func TestNodesMaterializedGrows(t *testing.T) {
	tr, _ := newTestTree(t, 4)
	if tr.NodesMaterialized() != 0 {
		t.Fatal("fresh tree has materialized nodes")
	}
	tr.Update(0, lineBytes(0, 1))
	if got := tr.NodesMaterialized(); got != 4 {
		t.Errorf("after one update materialized = %d, want 4", got)
	}
}

// treeFingerprint captures everything observable about a tree's stored
// state: root register, per-level materialized nodes, and the logical
// update count.
func treeFingerprint(tr *Tree) (Digest, []map[uint64]Digest, uint64) {
	root := tr.Root()
	levels := make([]map[uint64]Digest, len(tr.levels))
	for l, m := range tr.levels {
		levels[l] = make(map[uint64]Digest, m.Len())
		m.Range(func(k uint64, v *Digest) bool {
			levels[l][k] = *v
			return true
		})
	}
	return root, levels, tr.Updates()
}

func TestUpdateBatchMatchesSequential(t *testing.T) {
	// UpdateBatch must be observationally identical to sequential Update
	// walks on randomized address streams: same root, same stored node
	// set and values, same Updates() count — only PhysicalHashes()
	// differs.
	seq, _ := newTestTree(t, 5)
	bat, _ := newTestTree(t, 5)
	// Deterministic pseudo-random stream with duplicates and leaf-space
	// wraparound (pages beyond capacity alias onto leaves mod capacity).
	// The last round is wide: 96 leaves dealt round-robin over every
	// top-level subtree, the dirty-set shape of a drain-heavy sweep.
	rng := uint64(0x9E3779B97F4A7C15)
	const rounds, perBatch, wide = 20, 37, 96
	sub := seq.Capacity() / Arity
	for r := 0; r <= rounds; r++ {
		n := perBatch
		if r == rounds {
			n = wide
		}
		pages := make([]uint64, n)
		lines := make(map[uint64][]byte, n)
		for i := range pages {
			rng = rng*6364136223846793005 + 1442695040888963407
			p := rng % (seq.Capacity() + 100)
			if r == rounds {
				p = uint64(i%Arity)*sub + rng%sub
			}
			pages[i] = p
			lines[p] = lineBytes(rng, uint8(r), uint8(i))
			seq.Update(p, lines[p])
			seq.Sweep() // emulate the eager per-walk scheme
		}
		if r == rounds && len(lines) < 64 {
			t.Fatalf("wide round staged only %d distinct leaves", len(lines))
		}
		bat.UpdateBatch(pages, func(p uint64) []byte { return lines[p] })
	}
	sr, sl, su := treeFingerprint(seq)
	br, bl, bu := treeFingerprint(bat)
	if sr != br {
		t.Fatalf("root mismatch: sequential %x, batch %x", sr, br)
	}
	if su != bu {
		t.Fatalf("Updates() mismatch: sequential %d, batch %d", su, bu)
	}
	for l := range sl {
		if len(sl[l]) != len(bl[l]) {
			t.Fatalf("level %d: %d vs %d stored nodes", l, len(sl[l]), len(bl[l]))
		}
		for k, v := range sl[l] {
			if bl[l][k] != v {
				t.Fatalf("level %d node %d: sequential %x, batch %x", l, k, v, bl[l][k])
			}
		}
	}
	if seq.PhysicalHashes() == 0 || bat.PhysicalHashes() == 0 {
		t.Fatal("physical hash accounting missing")
	}
	if bat.PhysicalHashes() >= seq.PhysicalHashes() {
		t.Errorf("batching saved no physical hashes: batch %d, sequential %d",
			bat.PhysicalHashes(), seq.PhysicalHashes())
	}
}

func TestUpdateBatchLogicalAccounting(t *testing.T) {
	tr, _ := newTestTree(t, 4)
	line := lineBytes(7, 1)
	pages := []uint64{1, 2, 3, 2, 1}
	n := tr.UpdateBatch(pages, func(uint64) []byte { return line })
	if want := len(pages) * tr.Height(); n != want {
		t.Errorf("UpdateBatch logical hashes = %d, want %d", n, want)
	}
	if tr.Updates() != uint64(len(pages)) {
		t.Errorf("Updates = %d, want %d", tr.Updates(), len(pages))
	}
	// Duplicates collapse physically: 3 distinct leaves + shared
	// ancestors, well under the 5×4 logical walks.
	if tr.PhysicalHashes() >= uint64(n) {
		t.Errorf("PhysicalHashes = %d, want < %d", tr.PhysicalHashes(), n)
	}
}

func TestSweepIdempotentAndEmpty(t *testing.T) {
	tr, _ := newTestTree(t, 3)
	if n := tr.Sweep(); n != 0 {
		t.Errorf("empty sweep hashed %d nodes", n)
	}
	tr.Update(4, lineBytes(0, 1))
	if n := tr.Sweep(); n == 0 {
		t.Error("sweep of staged update hashed nothing")
	}
	if n := tr.Sweep(); n != 0 {
		t.Errorf("second sweep hashed %d nodes", n)
	}
}

func TestHeightModelNone(t *testing.T) {
	cfg := config.Default()
	m := NewHeightModel(cfg)
	if m.WalkLevels(0) != 8 || m.WalkLevels(12345) != 8 {
		t.Error("full BMT walk must be 8 levels")
	}
	if h, ms := m.Stats(); h != 0 || ms != 0 {
		t.Error("BMFNone should not touch the root cache")
	}
}

func TestHeightModelDBMF(t *testing.T) {
	cfg := config.Default()
	cfg.BMFMode = config.BMFDynamic
	m := NewHeightModel(cfg)
	// First touch of a subtree: full height (root swap-in).
	if got := m.WalkLevels(0); got != 8 {
		t.Errorf("cold DBMF walk = %d, want 8", got)
	}
	// Same subtree again: reduced height.
	if got := m.WalkLevels(1); got != 2 {
		t.Errorf("warm DBMF walk = %d, want 2", got)
	}
	hits, misses := m.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
}

func TestHeightModelSBMFCoverage(t *testing.T) {
	cfg := config.Default()
	cfg.BMFMode = config.BMFStatic
	m := NewHeightModel(cfg)
	m.WalkLevels(0)
	// SBMF height 5 covers 8^5 = 32768 pages per subtree root.
	if got := m.WalkLevels(32767); got != 5 {
		t.Errorf("same-subtree walk = %d, want 5", got)
	}
	if got := m.WalkLevels(32768); got != 8 {
		t.Errorf("new-subtree walk = %d, want 8", got)
	}
}

func BenchmarkTreeUpdate(b *testing.B) {
	e, _ := crypto.NewEngine([]byte("bench"))
	tr, _ := New(e, 8)
	line := lineBytes(1, 2, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Update + Sweep = one full physical leaf-to-root walk,
		// comparable to the former eager Update.
		tr.Update(uint64(i%4096), line)
		tr.Sweep()
	}
}

func BenchmarkTreeVerify(b *testing.B) {
	e, _ := crypto.NewEngine([]byte("bench"))
	tr, _ := New(e, 8)
	line := lineBytes(1, 2, 3)
	for i := 0; i < 4096; i++ {
		tr.Update(uint64(i), line)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Verify(uint64(i%4096), line); err != nil {
			b.Fatal(err)
		}
	}
}

// TestResetMatchesNew resets a tree that holds swept nodes, staged
// updates, nonzero counters and a verified-path memo: it must observe
// exactly like New — Root, Updates, PhysicalHashes, no stored node, an
// empty memo — and, given the same updates afterwards, keep agreeing
// with a new tree, verdicts included.
func TestResetMatchesNew(t *testing.T) {
	tr, e := newTestTree(t, 4)
	lines := map[uint64][]byte{3: lineBytes(1, 1), 4: lineBytes(2, 2), 3000: lineBytes(3, 3)}
	for p, l := range lines {
		tr.Update(p, l)
	}
	tr.Sweep()
	if err := tr.Verify(3, lines[3]); err != nil {
		t.Fatal(err)
	}
	tr.Update(77, lineBytes(9, 9)) // left staged
	if len(tr.verified) == 0 || len(tr.pending) == 0 {
		t.Fatal("tree not dirty before Reset")
	}
	tr.Reset()

	fresh, err := New(e, 4)
	if err != nil {
		t.Fatal(err)
	}
	same := func(stage string) {
		t.Helper()
		if tr.Root() != fresh.Root() || tr.Updates() != fresh.Updates() ||
			tr.PhysicalHashes() != fresh.PhysicalHashes() || tr.NodesMaterialized() != fresh.NodesMaterialized() {
			t.Fatalf("%s: reset tree root %x updates %d hashes %d nodes %d, new tree %x %d %d %d", stage,
				tr.Root(), tr.Updates(), tr.PhysicalHashes(), tr.NodesMaterialized(),
				fresh.Root(), fresh.Updates(), fresh.PhysicalHashes(), fresh.NodesMaterialized())
		}
	}
	same("after Reset")
	if len(tr.verified) != 0 {
		t.Fatalf("Reset kept %d verified-path memo entries", len(tr.verified))
	}
	for l := 0; l < 4; l++ {
		if _, ok := tr.Node(l, 0); ok {
			t.Fatalf("level %d node 0 still materialized after Reset", l)
		}
	}
	// A page proven before the reset is unknown to the reset tree.
	if err := tr.Verify(3, lines[3]); err == nil {
		t.Fatal("reset tree still verifies a page it no longer holds")
	}

	pages := []uint64{4, 3000, 4095}
	lineOf := func(p uint64) []byte { return lineBytes(p, uint8(p)) }
	tr.UpdateBatch(pages, lineOf)
	fresh.UpdateBatch(pages, lineOf)
	same("after UpdateBatch")
	for _, p := range pages {
		if err := tr.Verify(p, lineOf(p)); err != nil {
			t.Fatalf("verify %d after Reset: %v", p, err)
		}
	}
}
