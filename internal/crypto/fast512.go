package crypto

import (
	"bytes"
	"crypto/sha512"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
)

// This file is the engine's SHA-512 path. The hash primitives (per-store
// MACs and BMT node hashes) run on the standard library's crypto/sha512
// — assembly-backed on amd64/arm64 — and the package tests hold them
// against a hand-rolled SHA-512 reference, as they hold the stdlib AES
// against a T-table one.
//
// Both primitives are keyed-midstate constructions:
//
//	MAC(ct, a, c)   = SHA-512(macBlock  || addr || ctr || ct)
//	HashNode(child) = SHA-512(nodeBlock || child)
//
// where macBlock and nodeBlock are 128-byte key blocks (the 32-byte MAC
// key, zero padded; the node block additionally carries the 0xB7 domain
// byte so the two primitives can never collide). Because each key block
// is exactly one compression block, its midstate is computed once per
// distinct key and cached; a MAC then costs a single compression of the
// final padded block instead of re-absorbing the key every call, and
// finalization is allocation-free (the digest words are read straight
// out of the compressed state — no state copy, no pad-array build).

// Size512 is the SHA-512 digest size in bytes.
const Size512 = sha512.Size

// BlockBytes is the SHA-512 compression block size.
const BlockBytes = sha512.BlockSize

// stdState is what the hash path needs from the stdlib digest:
// incremental hashing plus state capture/restore for keyed midstates.
// crypto/sha512 has implemented the three encoding interfaces since
// Go 1.4 (marshal/unmarshal) and Go 1.24 (append); NewEngine still
// self-checks and returns an error if the assertion or the state layout
// ever changes.
type stdState interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
	encoding.BinaryAppender
}

// Offsets into the stdlib digest's marshaled state: a 4-byte magic
// ("sha\x07") followed by the eight big-endian hash words. For a state
// that has just compressed its final padded block, those words are
// exactly the SHA-512 digest.
const (
	stateMagicLen = 4
	stateLen      = stateMagicLen + Size512 + BlockBytes + 8
)

// suffix layout shared by both primitives: a message tail of up to
// maxOneBlockTail bytes after the key block still fits — with the 0x80
// terminator and the 16-byte length — in one compression block.
const maxOneBlockTail = BlockBytes - 17

// keyBlock builds the 128-byte key block for a primitive: the MAC key
// followed by the domain-separation bytes, zero padded to a full
// compression block.
func keyBlock(key *[32]byte, domain ...byte) [BlockBytes]byte {
	var b [BlockBytes]byte
	copy(b[:], key[:])
	copy(b[32:], domain)
	return b
}

// fastHasher is the per-engine fast-path state: the stdlib digest the
// midstates are restored into plus fixed scratch buffers. Keeping the
// buffers here (stable heap memory) instead of on the stack matters:
// stack arrays passed through the hash.Hash interface escape, which
// would cost two heap allocations per digest.
type fastHasher struct {
	d     stdState
	final [BlockBytes]byte
	state [stateLen]byte
	sum   [Size512]byte
}

func newFastHasher() (*fastHasher, error) {
	d, ok := sha512.New().(stdState)
	if !ok {
		return nil, errors.New("crypto: crypto/sha512 digest lacks state capture")
	}
	return &fastHasher{d: d}, nil
}

// midstate captures the stdlib digest state after absorbing one key
// block. The returned slice is immutable and safe to share across
// engines. It fails if the stdlib digest no longer supports state
// capture or the captured state fails the self-check.
func midstate(block *[BlockBytes]byte) ([]byte, error) {
	f, err := newFastHasher()
	if err != nil {
		return nil, err
	}
	f.d.Write(block[:])
	mid, err := f.d.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("crypto: capture SHA-512 midstate: %w", err)
	}
	if len(mid) != stateLen {
		return nil, fmt.Errorf("crypto: SHA-512 midstate is %d bytes, want %d", len(mid), stateLen)
	}
	// Self-check: one digest through the midstate path must match
	// crypto/sha512 over (block || probe). This guards the
	// marshaled-state layout assumption at construction time, so the
	// per-call path can trust it unconditionally.
	probe := [48]byte{0: 1, 21: 0xA5, 47: 0xFF}
	var got [Size512]byte
	f.oneBlock(mid, probe[:], &got)
	if want := sha512.Sum512(append(bytes.Clone(block[:]), probe[:]...)); got != want {
		return nil, errors.New("crypto: SHA-512 midstate self-check failed")
	}
	return mid, nil
}

// oneBlock hashes (key block || tail) in a single compression from the
// key block's midstate, for a tail of at most maxOneBlockTail bytes:
// the final block — tail, 0x80 terminator, message bit length — is
// assembled in the scratch buffer, the midstate is restored into the
// digest, and the digest words are extracted from the re-marshaled
// state. No heap allocation on this path.
func (f *fastHasher) oneBlock(mid []byte, tail []byte, out *[Size512]byte) {
	n := copy(f.final[:], tail)
	f.final[n] = 0x80
	clear(f.final[n+1 : BlockBytes-8])
	binary.BigEndian.PutUint64(f.final[BlockBytes-8:], uint64(BlockBytes+n)*8)
	f.restore(mid)
	f.d.Write(f.final[:])
	st, err := f.d.AppendBinary(f.state[:0])
	if err != nil {
		panic(fmt.Sprintf("crypto: marshal SHA-512 state after midstate self-check passed: %v", err))
	}
	copy(out[:], st[stateMagicLen:stateMagicLen+Size512])
}

// long hashes (key block || tail) for tails too long for a single final
// block, streaming through the stdlib digest. Sum finalizes into the
// scratch sum buffer, not the caller's array: handing out[:0] to the
// hash.Hash interface would make the caller's stack variable escape.
func (f *fastHasher) long(mid []byte, tail []byte, out *[Size512]byte) {
	f.restore(mid)
	f.d.Write(tail)
	copy(out[:], f.d.Sum(f.sum[:0]))
}

// restore loads a midstate into the digest. midstate checked that the
// digest accepts its own marshaled state, so a failure here is a bug.
func (f *fastHasher) restore(mid []byte) {
	if err := f.d.UnmarshalBinary(mid); err != nil {
		panic(fmt.Sprintf("crypto: restore SHA-512 midstate after self-check passed: %v", err))
	}
}
