package crypto

import (
	"bytes"
	"encoding/binary"
)

// macTailLen is the MAC input after the key block: address, counter and
// ciphertext.
const macTailLen = 16 + CacheLineSize

// MemoNodeInputMax is the longest node-hash input a HashMemo holds: a
// serialized counter line (8 major-counter bytes plus one minor byte per
// block of a page, 72 bytes) — the BMT's leaf input. Interior nodes
// (Arity × 8-byte digests) are 64 bytes. A longer input bypasses the
// memo and is hashed directly.
const MemoNodeInputMax = 72

// HashMemo is a full-input memo of an engine's keyed functions: it maps
// a MAC input (address, counter, ciphertext) to its tag, a node-hash
// input to its digest, and a pad input (address, counter) to its
// one-time pad. A crash checker recovers one image after another that
// differ in a handful of blocks, so most of what it authenticates —
// per-block MACs, counter-line leaves, interior nodes — it has already
// hashed at an earlier crash point, and most blocks it decrypts and
// re-encrypts it has already padded under the same counter.
//
// A hit requires the whole input to equal, byte for byte, one the memo
// computed under the same engine sub-keys, so the stored output is
// exactly what a fresh computation returns: a memo trusts no earlier
// verdict, only the determinism of SHA-512 and AES. Callers still
// compare every tag, digest and plaintext they would compare without
// it.
//
// The tables are direct-mapped and preallocated: a deterministic mix of
// the input picks one slot, a collision evicts the slot's occupant, and
// nothing grows, so a memo allocates only when it is built and its hit
// and miss counts are a pure function of the call sequence. A HashMemo
// serves one engine at a time (Engine.SetMemo) and, like the engine,
// is not safe for concurrent use.
type HashMemo struct {
	mac     []macSlot
	node    []nodeSlot
	pad     []padSlot
	shift   uint // 64 - log2(table length)
	padKey  [16]byte
	key     [32]byte
	keyed   bool
	stats   MemoStats
	scratch [macTailLen]byte
}

type macSlot struct {
	used bool
	in   [macTailLen]byte
	out  [MACSize]byte
}

type nodeSlot struct {
	used bool
	n    uint8
	in   [MemoNodeInputMax]byte
	out  [Size512]byte
}

type padSlot struct {
	used          bool
	addr, counter uint64
	out           [CacheLineSize]byte
}

// MemoStats counts a HashMemo's lookups since it was built or last
// bound to new keys. Every MAC call through a memoized engine is a MAC
// hit or miss, and every pad a pad hit or miss; every node hash is a
// node hit, a node miss, or (for inputs longer than MemoNodeInputMax) a
// bypass.
type MemoStats struct {
	MACHits, MACMisses   uint64
	NodeHits, NodeMisses uint64
	NodeBypasses         uint64
	PadHits, PadMisses   uint64
}

// Served returns the share of all memoized-engine calls answered from
// the memo.
func (s MemoStats) Served() float64 {
	calls := s.MACHits + s.MACMisses + s.NodeHits + s.NodeMisses + s.NodeBypasses + s.PadHits + s.PadMisses
	if calls == 0 {
		return 0
	}
	return float64(s.MACHits+s.NodeHits+s.PadHits) / float64(calls)
}

// NewHashMemo builds a memo whose MAC, node and pad tables each hold
// slots entries, rounded up to a power of two (minimum one).
func NewHashMemo(slots int) *HashMemo {
	b := uint(0)
	for 1<<b < slots {
		b++
	}
	return &HashMemo{
		mac:   make([]macSlot, 1<<b),
		node:  make([]nodeSlot, 1<<b),
		pad:   make([]padSlot, 1<<b),
		shift: 64 - b,
	}
}

// Stats returns the memo's lookup counts.
func (m *HashMemo) Stats() MemoStats { return m.stats }

// Reset empties the memo and zeroes its counts, keeping its tables, so
// a reset memo serves lookups exactly as NewHashMemo of the same size
// does. It keeps its key binding: an empty memo is valid under any
// keys, and a later SetMemo on an engine with the same sub-keys need
// not empty it again.
func (m *HashMemo) Reset() {
	clear(m.mac)
	clear(m.node)
	clear(m.pad)
	m.stats = MemoStats{}
}

// bind ties the memo to an engine's pad and MAC sub-keys. Entries
// computed under other keys would be wrong outputs under these, so a
// memo moving to an engine with a different sub-key starts empty.
func (m *HashMemo) bind(padKey *[16]byte, key *[32]byte) {
	if m.keyed && m.padKey == *padKey && m.key == *key {
		return
	}
	m.Reset()
	m.padKey, m.key, m.keyed = *padKey, *key, true
}

// mix folds an input into a slot index for a table addressed with the
// top (64 - shift) bits: seeded with the length, so equal-prefix inputs
// of different lengths land apart, then whole little-endian words, then
// any trailing bytes. It depends on the bytes alone: the same call
// sequence always fills the same slots.
func mix(in []byte, shift uint) uint64 {
	h := uint64(len(in)) * 0x9E3779B97F4A7C15
	for len(in) >= 8 {
		h = mixWord(h, binary.LittleEndian.Uint64(in))
		in = in[8:]
	}
	for _, b := range in {
		h = (h ^ uint64(b)) * 0x94D049BB133111EB
	}
	return mixFinal(h, shift)
}

// mixPad is mix over the 16-byte pad input (address, counter), without
// assembling the bytes: padSeed is mix's length seed for 16 bytes.
func mixPad(blockAddr, counter uint64, shift uint) uint64 {
	const padSeed = 16 * 0x9E3779B97F4A7C15 & (1<<64 - 1)
	return mixFinal(mixWord(mixWord(padSeed, blockAddr), counter), shift)
}

func mixWord(h, w uint64) uint64 {
	h = (h ^ w) * 0xBF58476D1CE4E5B9
	return h ^ h>>31
}

func mixFinal(h uint64, shift uint) uint64 {
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	return h >> shift
}

// otpInto is OTPInto through the memo.
func (m *HashMemo) otpInto(e *Engine, dst *[CacheLineSize]byte, blockAddr, counter uint64) {
	s := &m.pad[mixPad(blockAddr, counter, m.shift)]
	if s.used && s.addr == blockAddr && s.counter == counter {
		m.stats.PadHits++
		*dst = s.out
		return
	}
	m.stats.PadMisses++
	e.otpInto(&s.out, blockAddr, counter)
	s.addr, s.counter, s.used = blockAddr, counter, true
	*dst = s.out
}

// macInto is MACInto through the memo.
func (m *HashMemo) macInto(e *Engine, dst *[MACSize]byte, cipher *[CacheLineSize]byte, blockAddr, counter uint64) {
	in := &m.scratch
	binary.LittleEndian.PutUint64(in[0:], blockAddr)
	binary.LittleEndian.PutUint64(in[8:], counter)
	copy(in[16:], cipher[:])
	s := &m.mac[mix(in[:], m.shift)]
	if s.used && s.in == *in {
		m.stats.MACHits++
		*dst = s.out
		return
	}
	m.stats.MACMisses++
	e.macInto(&s.out, cipher, blockAddr, counter)
	s.in, s.used = *in, true
	*dst = s.out
}

// hashNode is HashNode through the memo.
func (m *HashMemo) hashNode(e *Engine, children []byte) [Size512]byte {
	if len(children) > MemoNodeInputMax {
		m.stats.NodeBypasses++
		return e.hashNode(children)
	}
	s := &m.node[mix(children, m.shift)]
	if s.used && int(s.n) == len(children) && bytes.Equal(s.in[:s.n], children) {
		m.stats.NodeHits++
		return s.out
	}
	m.stats.NodeMisses++
	s.out = e.hashNode(children)
	s.n = uint8(copy(s.in[:], children))
	s.used = true
	return s.out
}
