// Package bmt implements the Bonsai Merkle Tree protecting the split
// counters (Rogers et al.), the on-chip non-volatile root register, and
// the Bonsai Merkle Forest (BMF) height-reduction models used by the
// paper's Figure 9 study.
//
// The tree is functional: nodes hold real SHA-512 hashes over real
// counter lines, so tamper and rollback attacks are actually detected by
// verification, and crash-recovery experiments validate real state. The
// tree is sparse — untouched subtrees collapse to precomputed
// default hashes — so an 8GB PM image costs memory proportional only to
// the touched footprint.
package bmt

import (
	"fmt"
	"slices"

	"secpb/internal/crypto"
	"secpb/internal/ptable"
)

// Arity is the tree fan-out: eight 8-byte child digests pack one 64B
// metadata line, exactly the node layout hardware integrity trees use.
const Arity = 8

// DigestSize is the per-node digest width: SHA-512 output truncated to
// 8 bytes, so Arity digests fill one metadata line. (Real BMTs use
// truncated hashes for the same reason; the full-width MAC protecting
// data blocks is unaffected.)
const DigestSize = 8

// Digest is one tree node's truncated hash.
type Digest [DigestSize]byte

// truncate folds a full SHA-512 output into a node digest.
func truncate(h [crypto.Size512]byte) Digest {
	var d Digest
	copy(d[:], h[:DigestSize])
	return d
}

// Hasher abstracts the crypto engine's node hash.
type Hasher interface {
	HashNode(children []byte) [crypto.Size512]byte
}

// Tree is a sparse Merkle tree of fixed height over counter lines.
// Level 0 holds leaf hashes (one per counter line); level height-1 holds
// the Arity children of the root; the root itself lives in an on-chip NV
// register and never leaves the TCB.
//
// Physical hashing is coalesced (Freij et al., "Streamlining Integrity
// Tree Updates"): Update stages the counter line in a dirty-leaf set and
// defers hashing; Sweep commits all staged leaves with one deduplicated
// bottom-up pass, so interior nodes shared by many updated leaves are
// hashed once per sweep instead of once per leaf-to-root walk. Every
// observation of tree state (Root, Verify, Tamper, Snapshot,
// NodesMaterialized) sweeps first, so stored nodes and the root register
// are always observationally identical to the eager per-walk scheme.
//
// Accounting stays logical: Updates() counts leaf-to-root walks exactly
// as the eager tree did (the Figure 8 statistic), while PhysicalHashes()
// separately counts node hashes actually computed.
type Tree struct {
	h        Hasher
	height   int
	capacity uint64 // number of leaves = Arity^height
	// levels[l] stores the materialized (non-default) node digests of
	// level l, keyed by node index. The index streams are dense block
	// ranges, so a radix table beats the per-node hash-and-probe of a
	// map on the sweep and verify paths.
	levels   []*ptable.Table[Digest]
	defaults []Digest // default node hash per level
	root     Digest
	updates  uint64 // leaf-to-root update walks performed (logical)
	// pending maps a dirty leaf index to its staged counter-line copy
	// (last writer wins, as in the eager scheme); freeLines recycles
	// staged-line buffers across sweeps and sweepIdx is the reusable
	// per-level index scratch for the deduplicated bottom-up pass.
	pending    map[uint64][]byte
	freeLines  [][]byte
	sweepIdx   []uint64
	physHashes uint64 // node hashes actually computed
	// nodeBuf is the reusable child-concatenation buffer for hashChildren;
	// a stack array would escape through the Hasher interface call and
	// cost one heap allocation per node hash on the drain path.
	nodeBuf [Arity * DigestSize]byte
	// verified memoizes the stored nodes Verify has proven against the
	// root register since the stored nodes or the root last changed; a
	// later Verify stops climbing at the first memoized node on its
	// path. Every mutation site (Sweep, Tamper, SetHasher, and
	// SnapshotInto on the destination) drops it.
	verified map[nodeKey]struct{}
}

// nodeKey names one stored node for the verified-path memo.
type nodeKey struct {
	level int
	idx   uint64
}

// forgetVerified drops the verified-path memo. Clearing keeps the map's
// storage, so the memo costs no allocation at steady state.
func (t *Tree) forgetVerified() {
	if len(t.verified) > 0 {
		clear(t.verified)
	}
}

// New builds an empty tree of the given height (number of hash levels
// between a leaf and the root) using hasher h.
func New(h Hasher, height int) (*Tree, error) {
	if height <= 0 || height > 24 {
		return nil, fmt.Errorf("bmt: height %d out of range [1,24]", height)
	}
	t := &Tree{h: h, height: height}
	t.capacity = 1
	for i := 0; i < height; i++ {
		t.capacity *= Arity
	}
	t.levels = make([]*ptable.Table[Digest], height)
	for i := range t.levels {
		t.levels[i] = ptable.New[Digest]()
	}
	t.pending = make(map[uint64][]byte)
	// Default hashes: level 0 default is the hash of an absent (all
	// zero) leaf; level l default hashes Arity copies of level l-1's.
	t.defaults = make([]Digest, height+1)
	t.defaults[0] = truncate(h.HashNode(nil))
	for l := 1; l <= height; l++ {
		var buf [Arity * DigestSize]byte
		for i := 0; i < Arity; i++ {
			copy(buf[i*DigestSize:], t.defaults[l-1][:])
		}
		t.defaults[l] = truncate(h.HashNode(buf[:]))
	}
	t.root = t.defaults[height]
	return t, nil
}

// Height returns the number of hash levels from leaf to root.
func (t *Tree) Height() int { return t.height }

// Capacity returns the number of leaves.
func (t *Tree) Capacity() uint64 { return t.capacity }

// Root returns the current root register value, committing any staged
// updates first.
func (t *Tree) Root() Digest {
	t.Sweep()
	return t.root
}

// Updates returns the number of leaf-to-root update walks performed —
// the statistic Figure 8 reports. This is a logical count: it is
// unaffected by how many physical hashes sweep coalescing saved.
func (t *Tree) Updates() uint64 { return t.updates }

// PhysicalHashes returns the number of node hashes actually computed by
// sweeps — the wall-clock-relevant counterpart to Updates().
func (t *Tree) PhysicalHashes() uint64 { return t.physHashes }

// node returns the stored hash at (level, index), or the level default.
func (t *Tree) node(level int, idx uint64) Digest {
	if v := t.levels[level].Lookup(idx); v != nil {
		return *v
	}
	return t.defaults[level]
}

// hashChildren hashes the Arity children of parentIdx, whose children
// live at childLevel, taking stored values or level defaults.
func (t *Tree) hashChildren(parentIdx uint64, childLevel int) Digest {
	base := parentIdx * Arity
	if vals, present, ok := t.levels[childLevel].Octet(base); ok {
		// One directory walk covers all eight children (the range is
		// 8-aligned); absent bits take the level default.
		def := &t.defaults[childLevel]
		for i := 0; i < Arity; i++ {
			src := def
			if present&(1<<i) != 0 {
				src = &vals[i]
			}
			copy(t.nodeBuf[i*DigestSize:], src[:])
		}
		return truncate(t.h.HashNode(t.nodeBuf[:]))
	}
	for i := uint64(0); i < Arity; i++ {
		c := t.node(childLevel, base+i)
		copy(t.nodeBuf[i*DigestSize:], c[:])
	}
	return truncate(t.h.HashNode(t.nodeBuf[:]))
}

// leafIndex maps a counter-line (page) index onto the leaf space.
func (t *Tree) leafIndex(page uint64) uint64 { return page % t.capacity }

// LeafHash computes the leaf digest for a counter line's serialized
// contents.
func (t *Tree) LeafHash(counterLine []byte) Digest {
	return truncate(t.h.HashNode(counterLine))
}

// Update registers a leaf-to-root update walk for the counter line: the
// line is staged in the dirty-leaf set and the physical hashing is
// deferred to the next Sweep (triggered by any observation of tree
// state). It returns the number of node hashes the walk accounts for
// (height), exactly as the eager implementation did.
func (t *Tree) Update(page uint64, counterLine []byte) int {
	t.stage(page, counterLine)
	t.updates++
	return t.height
}

// UpdateBatch registers one update walk per page — lineOf must return
// the counter line for a given page — and commits them with a single
// deduplicated sweep. It returns the total logical node-hash count
// (len(pages) × height), matching what sequential Update calls would
// have returned; Updates() likewise advances by len(pages).
func (t *Tree) UpdateBatch(pages []uint64, lineOf func(page uint64) []byte) int {
	for _, p := range pages {
		t.stage(p, lineOf(p))
		t.updates++
	}
	t.Sweep()
	return len(pages) * t.height
}

// stage copies the counter line into the dirty-leaf set, recycling a
// previously swept buffer when one is free. Later writes to the same
// leaf overwrite earlier ones, as in the eager scheme.
func (t *Tree) stage(page uint64, counterLine []byte) {
	idx := t.leafIndex(page)
	buf := t.pending[idx]
	if buf == nil {
		if n := len(t.freeLines); n > 0 {
			buf, t.freeLines = t.freeLines[n-1], t.freeLines[:n-1]
		}
	}
	t.pending[idx] = append(buf[:0], counterLine...)
}

// Sweep commits all staged leaves in one deduplicated bottom-up pass:
// every dirty leaf is hashed once, then each level's touched parent set
// is deduplicated and hashed once, and the root register is recomputed
// once at the top. It returns the number of node hashes computed, which
// is also added to PhysicalHashes(). Sweeping is observationally
// equivalent to eager per-walk updates because each stored node is
// recomputed from the same final child values.
func (t *Tree) Sweep() int {
	if len(t.pending) == 0 {
		return 0
	}
	t.forgetVerified() // the sweep rewrites stored nodes and the root
	n := 0
	// Leaves are hashed in ascending index order, not map order, so a
	// sweep's sequence of hasher calls is a function of the staged
	// updates alone (a memoizing hasher's hit counts then reproduce).
	idxs := t.sweepIdx[:0]
	for idx := range t.pending {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	for i, idx := range idxs {
		line := t.pending[idx]
		t.levels[0].Put(idx, t.LeafHash(line))
		n++
		idxs[i] = idx / Arity
		t.freeLines = append(t.freeLines, line)
		delete(t.pending, idx)
	}
	for l := 1; l < t.height; l++ {
		slices.Sort(idxs)
		idxs = slices.Compact(idxs)
		for i, parent := range idxs {
			t.levels[l].Put(parent, t.hashChildren(parent, l-1))
			n++
			idxs[i] = parent / Arity
		}
	}
	t.root = t.hashChildren(0, t.height-1)
	n++
	t.sweepIdx = idxs[:0]
	t.physHashes += uint64(n)
	return n
}

// Verify checks the counter line against the tree: the stored leaf must
// match the line's hash, every stored parent must match the hash of its
// stored children, and the top level must match the root register. Any
// tampering of the counter line or of stored tree nodes — including
// consistent tampering of a whole path — is detected because the root
// register is on-chip.
//
// A successful check memoizes the path's stored nodes as proven, and the
// climb stops at the first node an earlier check already proved: its
// stored value is the one that was authenticated against the root, and
// nothing stored has changed since. The leaf-against-counter-line check
// runs on every call, so the verdict is the one a full climb would give.
func (t *Tree) Verify(page uint64, counterLine []byte) error {
	t.Sweep()
	leaf := t.leafIndex(page)
	if got, want := t.node(0, leaf), t.LeafHash(counterLine); got != want {
		return fmt.Errorf("bmt: leaf %d does not match counter line (stale or tampered counter)", leaf)
	}
	top, idx := t.height, leaf
	for l := 0; l < t.height; l++ {
		if _, ok := t.verified[nodeKey{l, idx}]; ok {
			top = l
			break
		}
		if l == t.height-1 {
			if got := t.hashChildren(0, l); got != t.root {
				return fmt.Errorf("bmt: root register mismatch")
			}
			break
		}
		parent := idx / Arity
		if got, want := t.node(l+1, parent), t.hashChildren(parent, l); got != want {
			return fmt.Errorf("bmt: node mismatch at level %d index %d", l+1, parent)
		}
		idx = parent
	}
	if t.verified == nil {
		t.verified = make(map[nodeKey]struct{})
	}
	for l, idx := 0, leaf; l < top; l++ {
		t.verified[nodeKey{l, idx}] = struct{}{}
		idx /= Arity
	}
	return nil
}

// PathNodeIDs returns stable identifiers for the nodes on the page's
// leaf-to-root path (excluding the root register). The engine keys these
// into the BMT metadata cache for timing.
func (t *Tree) PathNodeIDs(page uint64) []uint64 {
	return t.AppendPathNodeIDs(make([]uint64, 0, t.height), page)
}

// AppendPathNodeIDs appends the path node identifiers to dst and returns
// the extended slice, letting hot-path callers reuse a scratch slice
// instead of allocating per walk.
func (t *Tree) AppendPathNodeIDs(dst []uint64, page uint64) []uint64 {
	idx := t.leafIndex(page)
	for l := 0; l < t.height; l++ {
		// Pack (level, index) into one word; level in the top bits.
		dst = append(dst, uint64(l)<<56|idx)
		idx /= Arity
	}
	return dst
}

// SetHasher re-homes the tree on a different hasher. A controller
// restored from a crash snapshot uses it to hash with its own fresh
// crypto engine; for the same key the results are identical, so stored
// nodes, defaults and the root register all remain valid.
func (t *Tree) SetHasher(h Hasher) {
	t.h = h
	t.forgetVerified()
}

// Node returns the stored hash at (level, idx) and whether that node was
// ever materialized (attack/test primitive: tamper experiments read a
// node before overwriting it with a corrupted value).
func (t *Tree) Node(level int, idx uint64) (Digest, bool) {
	t.Sweep()
	if level < 0 || level >= t.height {
		return Digest{}, false
	}
	if v := t.levels[level].Lookup(idx); v != nil {
		return *v, true
	}
	return Digest{}, false
}

// Tamper overwrites a stored node hash (attack primitive for tests). It
// reports an error if the node was never materialized.
func (t *Tree) Tamper(level int, idx uint64, newHash Digest) error {
	t.Sweep()
	if level < 0 || level >= t.height {
		return fmt.Errorf("bmt: level %d out of range", level)
	}
	v := t.levels[level].Lookup(idx)
	if v == nil {
		return fmt.Errorf("bmt: node (%d,%d) not materialized", level, idx)
	}
	*v = newHash
	t.forgetVerified()
	return nil
}

// Snapshot deep-copies the tree (the persisted PM image plus the NV root
// register at a crash point). Staged updates are committed first: an
// Update models a persisted walk, so the crash image must contain it.
func (t *Tree) Snapshot() *Tree { return t.SnapshotInto(nil) }

// SnapshotInto is Snapshot into a recycled tree: dst's level pages,
// staged-line buffers and memo storage are reused, its staged updates
// and verified-path memo are discarded, and it ends up identical to a
// fresh Snapshot. A nil dst allocates.
func (t *Tree) SnapshotInto(dst *Tree) *Tree {
	t.Sweep()
	if dst == nil {
		dst = &Tree{pending: make(map[uint64][]byte)}
	}
	for idx, line := range dst.pending {
		dst.freeLines = append(dst.freeLines, line)
		delete(dst.pending, idx)
	}
	dst.h = t.h
	dst.height = t.height
	dst.capacity = t.capacity
	dst.defaults = t.defaults
	dst.root = t.root
	dst.updates = t.updates
	dst.physHashes = t.physHashes
	if len(dst.levels) != t.height {
		dst.levels = make([]*ptable.Table[Digest], t.height)
	}
	for l := range t.levels {
		dst.levels[l] = t.levels[l].CopyInto(dst.levels[l])
	}
	dst.forgetVerified()
	return dst
}

// Reset empties the tree in place, leaving it observationally equal to
// New with the same hasher and height: no stored nodes, no staged
// updates, the root register at the all-default root, zero Updates and
// PhysicalHashes, and no verified-path memo. The level pages, staged-line
// buffers and memo storage are kept, and so is the default-hash chain,
// which depends only on the hasher and the height.
func (t *Tree) Reset() {
	for idx, line := range t.pending {
		t.freeLines = append(t.freeLines, line)
		delete(t.pending, idx)
	}
	for _, lv := range t.levels {
		lv.Reset()
	}
	t.root = t.defaults[t.height]
	t.updates = 0
	t.physHashes = 0
	t.forgetVerified()
}

// EmptyInto makes dst an empty tree on t's hasher and height, equal to
// New(hasher, height), and returns it; a nil dst allocates. dst takes
// t's default-hash chain, which depends only on the hasher and the
// height, so no node is hashed: an audit replaying into dst does the
// same hashing whether dst is new or recycled. dst's level pages and
// staged-line buffers are kept.
func (t *Tree) EmptyInto(dst *Tree) *Tree {
	if dst == nil {
		dst = &Tree{pending: make(map[uint64][]byte)}
	}
	dst.h = t.h
	dst.height = t.height
	dst.capacity = t.capacity
	dst.defaults = t.defaults
	if len(dst.levels) != t.height {
		dst.levels = make([]*ptable.Table[Digest], t.height)
		for l := range dst.levels {
			dst.levels[l] = ptable.New[Digest]()
		}
	}
	dst.Reset()
	return dst
}

// NodesMaterialized returns the number of non-default nodes stored.
func (t *Tree) NodesMaterialized() int {
	t.Sweep()
	n := 0
	for _, m := range t.levels {
		n += m.Len()
	}
	return n
}
