package crypto

import (
	"encoding/binary"
	"testing"
)

// This file is the hand-rolled SHA-512 oracle the engine's stdlib hash
// path is tested against, with the reference MAC and node hash built on
// it and their benchmarks.

// sha512K holds the SHA-512 round constants (first 64 bits of the
// fractional parts of the cube roots of the first 80 primes).
var sha512K = [80]uint64{
	0x428a2f98d728ae22, 0x7137449123ef65cd, 0xb5c0fbcfec4d3b2f, 0xe9b5dba58189dbbc,
	0x3956c25bf348b538, 0x59f111f1b605d019, 0x923f82a4af194f9b, 0xab1c5ed5da6d8118,
	0xd807aa98a3030242, 0x12835b0145706fbe, 0x243185be4ee4b28c, 0x550c7dc3d5ffb4e2,
	0x72be5d74f27b896f, 0x80deb1fe3b1696b1, 0x9bdc06a725c71235, 0xc19bf174cf692694,
	0xe49b69c19ef14ad2, 0xefbe4786384f25e3, 0x0fc19dc68b8cd5b5, 0x240ca1cc77ac9c65,
	0x2de92c6f592b0275, 0x4a7484aa6ea6e483, 0x5cb0a9dcbd41fbd4, 0x76f988da831153b5,
	0x983e5152ee66dfab, 0xa831c66d2db43210, 0xb00327c898fb213f, 0xbf597fc7beef0ee4,
	0xc6e00bf33da88fc2, 0xd5a79147930aa725, 0x06ca6351e003826f, 0x142929670a0e6e70,
	0x27b70a8546d22ffc, 0x2e1b21385c26c926, 0x4d2c6dfc5ac42aed, 0x53380d139d95b3df,
	0x650a73548baf63de, 0x766a0abb3c77b2a8, 0x81c2c92e47edaee6, 0x92722c851482353b,
	0xa2bfe8a14cf10364, 0xa81a664bbc423001, 0xc24b8b70d0f89791, 0xc76c51a30654be30,
	0xd192e819d6ef5218, 0xd69906245565a910, 0xf40e35855771202a, 0x106aa07032bbd1b8,
	0x19a4c116b8d2d0c8, 0x1e376c085141ab53, 0x2748774cdf8eeb99, 0x34b0bcb5e19b48a8,
	0x391c0cb3c5c95a63, 0x4ed8aa4ae3418acb, 0x5b9cca4f7763e373, 0x682e6ff3d6b2b8a3,
	0x748f82ee5defb2fc, 0x78a5636f43172f60, 0x84c87814a1f0ab72, 0x8cc702081a6439ec,
	0x90befffa23631e28, 0xa4506cebde82bde9, 0xbef9a3f7b2c67915, 0xc67178f2e372532b,
	0xca273eceea26619c, 0xd186b8c721c0c207, 0xeada7dd6cde0eb1e, 0xf57d4f7fee6ed178,
	0x06f067aa72176fba, 0x0a637dc5a2c898a6, 0x113f9804bef90dae, 0x1b710b35131c471b,
	0x28db77f523047d84, 0x32caab7b40c72493, 0x3c9ebe0a15c9bebc, 0x431d67c49c100d4c,
	0x4cc5d4becb3e42b6, 0x597f299cfc657e2a, 0x5fcb6fab3ad6faec, 0x6c44198c4a475817,
}

// SHA512 is an incremental SHA-512 hash. The zero value is NOT valid;
// construct with NewSHA512.
//
// This is the hand-rolled reference implementation: the engine's MACs
// and BMT node hashes run on crypto/sha512 (fast512.go), and
// differential tests cross-check every digest against this one. Keep it
// simple and obviously correct.
type SHA512 struct {
	h   [8]uint64
	buf [128]byte
	n   int    // bytes buffered in buf
	len uint64 // total message length in bytes
}

// NewSHA512 returns a fresh SHA-512 hash state.
func NewSHA512() *SHA512 {
	s := &SHA512{}
	s.Reset()
	return s
}

// Reset restores the initial hash state.
func (s *SHA512) Reset() {
	s.h = [8]uint64{
		0x6a09e667f3bcc908, 0xbb67ae8584caa73b, 0x3c6ef372fe94f82b, 0xa54ff53a5f1d36f1,
		0x510e527fade682d1, 0x9b05688c2b3e6c1f, 0x1f83d9abfb41bd6b, 0x5be0cd19137e2179,
	}
	s.n = 0
	s.len = 0
}

func rotr64(x uint64, k uint) uint64 { return x>>k | x<<(64-k) }

func (s *SHA512) block(p []byte) { sha512Blocks(&s.h, p) }

// sha512Blocks runs the SHA-512 compression function over every full
// 128-byte block of p, updating h in place. Factoring it free of the
// SHA512 struct lets finalization work on a copy of the eight hash words
// alone instead of duplicating the whole ~200B state.
func sha512Blocks(h8 *[8]uint64, p []byte) {
	var w [80]uint64
	for len(p) >= 128 {
		for i := 0; i < 16; i++ {
			w[i] = binary.BigEndian.Uint64(p[8*i:])
		}
		for i := 16; i < 80; i++ {
			s0 := rotr64(w[i-15], 1) ^ rotr64(w[i-15], 8) ^ (w[i-15] >> 7)
			s1 := rotr64(w[i-2], 19) ^ rotr64(w[i-2], 61) ^ (w[i-2] >> 6)
			w[i] = w[i-16] + s0 + w[i-7] + s1
		}
		a, b, c, d, e, f, g, h := h8[0], h8[1], h8[2], h8[3], h8[4], h8[5], h8[6], h8[7]
		for i := 0; i < 80; i++ {
			S1 := rotr64(e, 14) ^ rotr64(e, 18) ^ rotr64(e, 41)
			ch := (e & f) ^ (^e & g)
			t1 := h + S1 + ch + sha512K[i] + w[i]
			S0 := rotr64(a, 28) ^ rotr64(a, 34) ^ rotr64(a, 39)
			maj := (a & b) ^ (a & c) ^ (b & c)
			t2 := S0 + maj
			h, g, f, e, d, c, b, a = g, f, e, d+t1, c, b, a, t1+t2
		}
		h8[0] += a
		h8[1] += b
		h8[2] += c
		h8[3] += d
		h8[4] += e
		h8[5] += f
		h8[6] += g
		h8[7] += h
		p = p[128:]
	}
}

// Write absorbs p into the hash state. It never fails.
func (s *SHA512) Write(p []byte) (int, error) {
	n := len(p)
	s.len += uint64(n)
	if s.n > 0 {
		c := copy(s.buf[s.n:], p)
		s.n += c
		p = p[c:]
		if s.n == 128 {
			s.block(s.buf[:])
			s.n = 0
		}
	}
	if len(p) >= 128 {
		full := len(p) &^ 127
		s.block(p[:full])
		p = p[full:]
	}
	if len(p) > 0 {
		s.n = copy(s.buf[:], p)
	}
	return n, nil
}

// Sum appends the digest of the absorbed data to b and returns the
// result. The hash state is not modified, so more data may be written
// afterwards.
func (s *SHA512) Sum(b []byte) []byte {
	var out [Size512]byte
	s.SumInto(&out)
	return append(b, out[:]...)
}

// SumInto finalizes the digest into out without modifying the hash
// state and without heap allocation: only the eight hash words are
// copied (not the whole buffered state), and the padded tail — at most
// two blocks — is assembled in a stack buffer and compressed directly.
func (s *SHA512) SumInto(out *[Size512]byte) {
	h := s.h
	var tail [2 * BlockBytes]byte
	n := copy(tail[:], s.buf[:s.n])
	tail[n] = 0x80
	// The message length in bits is a 128-bit big-endian integer; the
	// high 64 bits carry only the bits shifted out of len<<3.
	tlen := BlockBytes
	if n+17 > BlockBytes {
		tlen = 2 * BlockBytes
	}
	binary.BigEndian.PutUint64(tail[tlen-16:], s.len>>61)
	binary.BigEndian.PutUint64(tail[tlen-8:], s.len<<3)
	sha512Blocks(&h, tail[:tlen])
	for i, v := range h {
		binary.BigEndian.PutUint64(out[8*i:], v)
	}
}

// Sum512 returns the SHA-512 digest of data using the hand-rolled
// reference implementation.
func Sum512(data []byte) [Size512]byte {
	var s SHA512
	s.Reset()
	s.Write(data)
	var out [Size512]byte
	s.SumInto(&out)
	return out
}

// MACReference computes the same tag as MAC on the hand-rolled SHA512,
// by literally assembling the documented message
//
//	macBlock || addr || ctr || ct
//
// and hashing it in one shot. It is the differential-test oracle for
// MAC; like the other reference implementations it favors obvious
// correctness over speed.
func (e *Engine) MACReference(cipher *[CacheLineSize]byte, blockAddr, counter uint64) [MACSize]byte {
	block := keyBlock(&e.macKey)
	msg := make([]byte, 0, BlockBytes+16+CacheLineSize)
	msg = append(msg, block[:]...)
	msg = binary.LittleEndian.AppendUint64(msg, blockAddr)
	msg = binary.LittleEndian.AppendUint64(msg, counter)
	msg = append(msg, cipher[:]...)
	return Sum512(msg)
}

// HashNodeReference computes the same digest as HashNode on the
// hand-rolled SHA512, assembling the documented nodeBlock || children
// message and hashing it in one shot, favoring obvious correctness over
// speed.
func (e *Engine) HashNodeReference(children []byte) [Size512]byte {
	block := keyBlock(&e.macKey, 0xB7)
	msg := make([]byte, 0, BlockBytes+len(children))
	msg = append(msg, block[:]...)
	msg = append(msg, children...)
	return Sum512(msg)
}

// BenchmarkMACReference measures a block MAC on the hand-rolled
// reference (the cost before the stdlib midstate path).
func BenchmarkMACReference(b *testing.B) {
	e, err := NewEngine([]byte("bench-key"))
	if err != nil {
		b.Fatal(err)
	}
	var ct [CacheLineSize]byte
	b.SetBytes(CacheLineSize)
	b.ReportAllocs()
	b.ResetTimer()
	var sink byte
	for i := 0; i < b.N; i++ {
		tag := e.MACReference(&ct, uint64(i)<<6, uint64(i))
		sink ^= tag[0]
	}
	_ = sink
}

// BenchmarkHashNodeReference measures a BMT interior-node hash (64
// bytes of child digests) on the hand-rolled reference.
func BenchmarkHashNodeReference(b *testing.B) {
	e, err := NewEngine([]byte("bench-key"))
	if err != nil {
		b.Fatal(err)
	}
	children := make([]byte, 64)
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	var sink byte
	for i := 0; i < b.N; i++ {
		h := e.HashNodeReference(children)
		sink ^= h[0]
	}
	_ = sink
}
