// Package crypto implements the cryptographic primitives SecPB's memory
// controller uses: AES counter-mode one-time pads for data encryption,
// and SHA-512 for BMT node hashes and block MACs.
//
// Pads come from the standard library's AES (AES-NI on amd64) and
// digests from its SHA-512, MACs and node hashes through a keyed
// midstate (see fast512.go); the hand-rolled T-table AES and SHA-512
// oracles they are tested against live in the package's tests. The
// engine models a hardware unit inside a simulator and must never be
// used to protect real data.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha512"
	"crypto/subtle"
	"encoding/binary"
	"sync"
)

// BlockSize is the AES block size in bytes.
const BlockSize = aes.BlockSize

// CacheLineSize is the size of a memory block protected as a unit (64B),
// matching the paper's cache line and SecPB entry data size.
const CacheLineSize = 64

// MACSize is the per-block MAC size in bytes. The paper's SecPB entry
// reserves 512 bits per MAC.
const MACSize = 64

// Engine is the memory controller's cryptographic engine: it derives
// one-time pads from (address, counter) seeds, XORs pads with plaintext
// (counter-mode encryption), and computes block MACs and BMT node hashes.
//
// Counter-mode encryption with address-dependent seeds is the split
// counter scheme of Yan et al. used by the paper: the OTP depends only on
// the data-value-independent (address, counter) pair, never on the data.
//
// MAC and HashNode are keyed-midstate constructions over a full 128-byte
// key block (see fast512.go): each restores a cached midstate and
// compresses a single final block via stdlib crypto/sha512.
type Engine struct {
	// fastAES is the stdlib AES-128 cipher under padKey: on amd64 it
	// compiles to AES-NI instructions, so a pad costs a few cycles per
	// block. The package tests hold it against a hand-rolled T-table
	// oracle (OTPReference, FuzzOTPFastVsReference).
	fastAES cipher.Block
	padKey  [16]byte
	macKey  [32]byte
	// fast is the per-engine stdlib digest (plus scratch) the midstates
	// are restored into; macMid/nodeMid are the shared, immutable
	// key-block midstates. The engine models one hardware unit and is
	// not safe for concurrent use.
	fast    *fastHasher
	macMid  []byte
	nodeMid []byte
	// otpSeed/otpPad are per-engine scratch for pad generation. Stack
	// arrays sliced into the cipher.Block interface call escape to the
	// heap; routing them through these fields keeps OTPInto (and the
	// Encrypt/Decrypt convenience wrappers) allocation-free. The engine
	// models one hardware unit and is not concurrency-safe.
	otpSeed [BlockSize]byte
	otpPad  [CacheLineSize]byte
	// memo, when set, answers pads, MACs and node hashes whose full
	// input it has already derived (see HashMemo). Only crash-recovery
	// checkers attach one; every other engine leaves it nil.
	memo *HashMemo
}

// derived is the cacheable, immutable part of an engine: the expanded
// AES key schedule, the MAC sub-key, and the key-block midstates for the
// fast hash path. Experiment sweeps build hundreds of controllers under
// the same master key (one per simulated system); caching the derivation
// means the SHA-512 key stretch, the AES key expansion, and the two
// midstate captures run once per distinct key, not once per simulation.
// The cipher and midstate slices are shared across engines — they are
// immutable and safe for concurrent use.
type derived struct {
	fastAES cipher.Block
	padKey  [16]byte
	macKey  [32]byte
	macMid  []byte
	nodeMid []byte
}

// deriveCacheMax bounds deriveCache growth under adversarial key churn.
const deriveCacheMax = 1024

var (
	deriveMu    sync.RWMutex
	deriveCache = map[string]derived{}
)

// NewEngine returns an engine keyed by the given secret. Different key
// material is derived internally for encryption and authentication.
// Engines sharing a key share the (read-only) key schedule and hash
// midstates but carry private hash scratch state; each engine instance
// remains single-threaded, as before.
func NewEngine(key []byte) (*Engine, error) {
	k := string(key)
	deriveMu.RLock()
	d, ok := deriveCache[k]
	deriveMu.RUnlock()
	if !ok {
		// Derive independent sub-keys via SHA-512 so a single master
		// secret configures the whole engine.
		sum := sha512.Sum512(append([]byte("secpb-engine-v1:"), key...))
		std, err := aes.NewCipher(sum[:16]) // AES-128 pad generator
		if err != nil {
			return nil, err
		}
		d = derived{fastAES: std}
		copy(d.padKey[:], sum[:16])
		copy(d.macKey[:], sum[16:48])
		macBlock := keyBlock(&d.macKey)
		nodeBlock := keyBlock(&d.macKey, 0xB7) // domain separation from MAC
		if d.macMid, err = midstate(&macBlock); err != nil {
			return nil, err
		}
		if d.nodeMid, err = midstate(&nodeBlock); err != nil {
			return nil, err
		}
		deriveMu.Lock()
		if len(deriveCache) >= deriveCacheMax {
			// Evict one random entry (map iteration order is
			// randomized) instead of flushing the whole cache: a full
			// flush evicted every hot key mid-sweep and forced all
			// concurrent simulations to re-derive at once.
			for old := range deriveCache {
				delete(deriveCache, old)
				break
			}
		}
		deriveCache[k] = d
		deriveMu.Unlock()
	}
	fast, err := newFastHasher()
	if err != nil {
		return nil, err
	}
	return &Engine{fastAES: d.fastAES, padKey: d.padKey, macKey: d.macKey,
		fast: fast, macMid: d.macMid, nodeMid: d.nodeMid}, nil
}

// OTP computes the 64-byte one-time pad for a block at the given physical
// block address with the given counter value. The pad is the AES
// encryption of four distinct (addr, counter, lane) seeds under the
// stdlib cipher (AES-NI on amd64).
func (e *Engine) OTP(blockAddr uint64, counter uint64) [CacheLineSize]byte {
	var pad [CacheLineSize]byte
	e.OTPInto(&pad, blockAddr, counter)
	return pad
}

// OTPInto writes the pad for (blockAddr, counter) directly into dst —
// the hot-path form that spares the 64-byte return and reassignment
// copies when the pad's destination (a persist-buffer entry field)
// already exists.
func (e *Engine) OTPInto(dst *[CacheLineSize]byte, blockAddr uint64, counter uint64) {
	if e.memo != nil {
		e.memo.otpInto(e, dst, blockAddr, counter)
		return
	}
	e.otpInto(dst, blockAddr, counter)
}

// otpInto derives the pad without consulting the memo.
func (e *Engine) otpInto(dst *[CacheLineSize]byte, blockAddr uint64, counter uint64) {
	binary.LittleEndian.PutUint64(e.otpSeed[0:], blockAddr)
	for lane := 0; lane < CacheLineSize/BlockSize; lane++ {
		binary.LittleEndian.PutUint64(e.otpSeed[8:], counter<<2|uint64(lane))
		e.fastAES.Encrypt(dst[lane*BlockSize:], e.otpSeed[:])
	}
}

// XOR writes dst = a XOR b for 64-byte blocks, a machine word at a
// time; dst may be a (the in-place encrypt of a staged drain). In
// hardware this is the single-cycle ciphertext generation step.
func XOR(dst, a, b *[CacheLineSize]byte) {
	subtle.XORBytes(dst[:], a[:], b[:])
}

// Encrypt returns the ciphertext of a 64-byte plaintext block under the
// (blockAddr, counter) pad.
func (e *Engine) Encrypt(plain *[CacheLineSize]byte, blockAddr, counter uint64) [CacheLineSize]byte {
	e.OTPInto(&e.otpPad, blockAddr, counter)
	var ct [CacheLineSize]byte
	XOR(&ct, plain, &e.otpPad)
	return ct
}

// Decrypt returns the plaintext of a 64-byte ciphertext block under the
// (blockAddr, counter) pad. Counter mode is symmetric, so this is the
// same operation as Encrypt.
func (e *Engine) Decrypt(cipher *[CacheLineSize]byte, blockAddr, counter uint64) [CacheLineSize]byte {
	return e.Encrypt(cipher, blockAddr, counter)
}

// MAC computes the 64-byte authentication tag over (ciphertext, address,
// counter). Binding the address defeats splicing and the counter defeats
// (counter-aware) replay; freshness of the counter itself is guaranteed
// by the BMT.
//
// The 80-byte (header || ciphertext) tail always fits the single-block
// fast path, so a MAC costs one SHA-512 compression from the cached key
// midstate.
func (e *Engine) MAC(cipher *[CacheLineSize]byte, blockAddr, counter uint64) [MACSize]byte {
	var tag [MACSize]byte
	e.MACInto(&tag, cipher, blockAddr, counter)
	return tag
}

// MACInto writes the tag directly into dst — the hot-path form for
// callers whose tag destination already exists (per-store early MAC
// regeneration writes straight into the entry's M field).
func (e *Engine) MACInto(dst *[MACSize]byte, cipher *[CacheLineSize]byte, blockAddr, counter uint64) {
	if e.memo != nil {
		e.memo.macInto(e, dst, cipher, blockAddr, counter)
		return
	}
	e.macInto(dst, cipher, blockAddr, counter)
}

// macInto computes the tag without consulting the memo.
func (e *Engine) macInto(dst *[MACSize]byte, cipher *[CacheLineSize]byte, blockAddr, counter uint64) {
	var tail [macTailLen]byte
	binary.LittleEndian.PutUint64(tail[0:], blockAddr)
	binary.LittleEndian.PutUint64(tail[8:], counter)
	copy(tail[16:], cipher[:])
	e.fast.oneBlock(e.macMid, tail[:], dst)
}

// SetMemo attaches a hash memo to the engine, or detaches it with nil.
// From then on OTP, OTPInto, Encrypt, Decrypt, MAC, MACInto and
// HashNode answer from the memo whenever it holds their exact input,
// and fill it otherwise. A memo last used under different sub-keys is
// emptied first. Memoized results are bit-identical to direct ones, so
// attaching a memo changes no output.
func (e *Engine) SetMemo(m *HashMemo) {
	if m != nil {
		m.bind(&e.padKey, &e.macKey)
	}
	e.memo = m
}

// HashNode computes a keyed BMT node hash over arbitrary child material.
// BMT interior nodes (8 children × 8-byte digests = 64 bytes) fit the
// single-compression fast path; longer inputs stream through the stdlib
// digest from the same midstate.
func (e *Engine) HashNode(children []byte) [Size512]byte {
	if e.memo != nil {
		return e.memo.hashNode(e, children)
	}
	return e.hashNode(children)
}

// hashNode computes the digest without consulting the memo.
func (e *Engine) hashNode(children []byte) [Size512]byte {
	var out [Size512]byte
	if len(children) <= maxOneBlockTail {
		e.fast.oneBlock(e.nodeMid, children, &out)
	} else {
		e.fast.long(e.nodeMid, children, &out)
	}
	return out
}
