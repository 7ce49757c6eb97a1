// The hand-rolled T-table AES: the from-scratch oracle the engine's
// stdlib (AES-NI) pad path is differentially tested against. It is
// table-based and not constant time, and it lives in a test file so that
// no product code can reach it.

package crypto

import (
	"encoding/binary"
	"fmt"
)

var (
	sbox    [256]byte
	invSbox [256]byte
	// Round-constant words for key expansion.
	rcon = [11]byte{0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36}
	// Encryption T-tables: each combines SubBytes with the byte's
	// MixColumns contribution at one row position, so a round is 16
	// lookups and XORs instead of per-byte matrix arithmetic. Built in
	// init from the generated S-box; the equivalence test checks the
	// table path against the matrix path (and both against stdlib).
	te0, te1, te2, te3 [256]uint32
)

func init() {
	// Generate the S-box algebraically: multiplicative inverse in
	// GF(2^8) followed by the affine transform. Generating it (rather
	// than pasting the table) gives the tests something independent to
	// verify against the standard library.
	p, q := byte(1), byte(1)
	for {
		// p := p * 3 in GF(2^8)
		p = p ^ (p << 1) ^ mulBranch(p)
		// q := q / 3 (multiply by inverse of 3)
		q ^= q << 1
		q ^= q << 2
		q ^= q << 4
		if q&0x80 != 0 {
			q ^= 0x09
		}
		// Affine transform of the inverse.
		x := q ^ rotl8(q, 1) ^ rotl8(q, 2) ^ rotl8(q, 3) ^ rotl8(q, 4)
		sbox[p] = x ^ 0x63
		if p == 1 {
			break
		}
	}
	sbox[0] = 0x63
	for i := 0; i < 256; i++ {
		invSbox[sbox[i]] = byte(i)
	}
	for i := 0; i < 256; i++ {
		s := sbox[i]
		s2 := xtime(s)
		s3 := s2 ^ s
		te0[i] = uint32(s2)<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(s3)
		te1[i] = uint32(s3)<<24 | uint32(s2)<<16 | uint32(s)<<8 | uint32(s)
		te2[i] = uint32(s)<<24 | uint32(s3)<<16 | uint32(s2)<<8 | uint32(s)
		te3[i] = uint32(s)<<24 | uint32(s)<<16 | uint32(s3)<<8 | uint32(s2)
	}
}

func mulBranch(p byte) byte {
	if p&0x80 != 0 {
		return 0x1b
	}
	return 0
}

func rotl8(x byte, k uint) byte { return x<<k | x>>(8-k) }

// xtime multiplies by x (i.e. 2) in GF(2^8).
func xtime(b byte) byte { return b<<1 ^ mulBranch(b) }

// gmul multiplies two elements of GF(2^8).
func gmul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
		b >>= 1
	}
	return p
}

// Cipher is an AES block cipher with an expanded key schedule. A Cipher
// is immutable after construction and safe for concurrent use.
type Cipher struct {
	encW   [60]uint32     // round-key words (big-endian columns), encrypt path
	enc    [15][4][4]byte // round keys as 4x4 state matrices, decrypt path
	rounds int
}

// NewCipher returns an AES cipher for a 16-, 24-, or 32-byte key.
func NewCipher(key []byte) (*Cipher, error) {
	var rounds int
	switch len(key) {
	case 16:
		rounds = 10
	case 24:
		rounds = 12
	case 32:
		rounds = 14
	default:
		return nil, fmt.Errorf("crypto: invalid AES key size %d", len(key))
	}
	c := &Cipher{rounds: rounds}
	c.expandKey(key)
	return c, nil
}

// expandKey computes the Rijndael key schedule.
func (c *Cipher) expandKey(key []byte) {
	nk := len(key) / 4
	nw := 4 * (c.rounds + 1)
	w := make([][4]byte, nw)
	for i := 0; i < nk; i++ {
		copy(w[i][:], key[4*i:4*i+4])
	}
	for i := nk; i < nw; i++ {
		t := w[i-1]
		if i%nk == 0 {
			// RotWord + SubWord + Rcon
			t = [4]byte{sbox[t[1]], sbox[t[2]], sbox[t[3]], sbox[t[0]]}
			t[0] ^= rcon[i/nk]
		} else if nk > 6 && i%nk == 4 {
			t = [4]byte{sbox[t[0]], sbox[t[1]], sbox[t[2]], sbox[t[3]]}
		}
		for j := 0; j < 4; j++ {
			w[i][j] = w[i-nk][j] ^ t[j]
		}
	}
	for r := 0; r <= c.rounds; r++ {
		for col := 0; col < 4; col++ {
			for row := 0; row < 4; row++ {
				c.enc[r][row][col] = w[4*r+col][row]
			}
		}
	}
	for i := 0; i < nw; i++ {
		c.encW[i] = uint32(w[i][0])<<24 | uint32(w[i][1])<<16 | uint32(w[i][2])<<8 | uint32(w[i][3])
	}
}

// state is the AES state matrix, s[row][col], column-major load order.
type state [4][4]byte

func loadState(src []byte) state {
	var s state
	for col := 0; col < 4; col++ {
		for row := 0; row < 4; row++ {
			s[row][col] = src[4*col+row]
		}
	}
	return s
}

func (s *state) store(dst []byte) {
	for col := 0; col < 4; col++ {
		for row := 0; row < 4; row++ {
			dst[4*col+row] = s[row][col]
		}
	}
}

func (s *state) addRoundKey(rk *[4][4]byte) {
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			s[r][c] ^= rk[r][c]
		}
	}
}

func (s *state) subBytes() {
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			s[r][c] = sbox[s[r][c]]
		}
	}
}

func (s *state) invSubBytes() {
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			s[r][c] = invSbox[s[r][c]]
		}
	}
}

func (s *state) shiftRows() {
	for r := 1; r < 4; r++ {
		var tmp [4]byte
		for c := 0; c < 4; c++ {
			tmp[c] = s[r][(c+r)%4]
		}
		s[r] = tmp
	}
}

func (s *state) invShiftRows() {
	for r := 1; r < 4; r++ {
		var tmp [4]byte
		for c := 0; c < 4; c++ {
			tmp[(c+r)%4] = s[r][c]
		}
		s[r] = tmp
	}
}

func (s *state) mixColumns() {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[0][c], s[1][c], s[2][c], s[3][c]
		s[0][c] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3
		s[1][c] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3
		s[2][c] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3)
		s[3][c] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3)
	}
}

func (s *state) invMixColumns() {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[0][c], s[1][c], s[2][c], s[3][c]
		s[0][c] = gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^ gmul(a2, 0x0d) ^ gmul(a3, 0x09)
		s[1][c] = gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^ gmul(a2, 0x0b) ^ gmul(a3, 0x0d)
		s[2][c] = gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^ gmul(a2, 0x0e) ^ gmul(a3, 0x0b)
		s[3][c] = gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^ gmul(a2, 0x09) ^ gmul(a3, 0x0e)
	}
}

// Encrypt encrypts one 16-byte block from src into dst via the T-table
// fast path. dst and src may overlap. It panics if either slice is
// shorter than BlockSize.
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("crypto: AES input not full block")
	}
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ c.encW[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ c.encW[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ c.encW[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ c.encW[3]
	k := 4
	for r := 1; r < c.rounds; r++ {
		t0 := te0[s0>>24] ^ te1[s1>>16&0xff] ^ te2[s2>>8&0xff] ^ te3[s3&0xff] ^ c.encW[k]
		t1 := te0[s1>>24] ^ te1[s2>>16&0xff] ^ te2[s3>>8&0xff] ^ te3[s0&0xff] ^ c.encW[k+1]
		t2 := te0[s2>>24] ^ te1[s3>>16&0xff] ^ te2[s0>>8&0xff] ^ te3[s1&0xff] ^ c.encW[k+2]
		t3 := te0[s3>>24] ^ te1[s0>>16&0xff] ^ te2[s1>>8&0xff] ^ te3[s2&0xff] ^ c.encW[k+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
		k += 4
	}
	// Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
	d0 := uint32(sbox[s0>>24])<<24 | uint32(sbox[s1>>16&0xff])<<16 | uint32(sbox[s2>>8&0xff])<<8 | uint32(sbox[s3&0xff])
	d1 := uint32(sbox[s1>>24])<<24 | uint32(sbox[s2>>16&0xff])<<16 | uint32(sbox[s3>>8&0xff])<<8 | uint32(sbox[s0&0xff])
	d2 := uint32(sbox[s2>>24])<<24 | uint32(sbox[s3>>16&0xff])<<16 | uint32(sbox[s0>>8&0xff])<<8 | uint32(sbox[s1&0xff])
	d3 := uint32(sbox[s3>>24])<<24 | uint32(sbox[s0>>16&0xff])<<16 | uint32(sbox[s1>>8&0xff])<<8 | uint32(sbox[s2&0xff])
	binary.BigEndian.PutUint32(dst[0:4], d0^c.encW[k])
	binary.BigEndian.PutUint32(dst[4:8], d1^c.encW[k+1])
	binary.BigEndian.PutUint32(dst[8:12], d2^c.encW[k+2])
	binary.BigEndian.PutUint32(dst[12:16], d3^c.encW[k+3])
}

// encryptGeneric is the straightforward matrix implementation of the
// cipher, kept as an independent reference for the T-table fast path
// (the equivalence test runs both over random blocks).
func (c *Cipher) encryptGeneric(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("crypto: AES input not full block")
	}
	s := loadState(src)
	s.addRoundKey(&c.enc[0])
	for r := 1; r < c.rounds; r++ {
		s.subBytes()
		s.shiftRows()
		s.mixColumns()
		s.addRoundKey(&c.enc[r])
	}
	s.subBytes()
	s.shiftRows()
	s.addRoundKey(&c.enc[c.rounds])
	s.store(dst)
}

// Decrypt decrypts one 16-byte block from src into dst. dst and src may
// overlap. It panics if either slice is shorter than BlockSize.
func (c *Cipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("crypto: AES input not full block")
	}
	s := loadState(src)
	s.addRoundKey(&c.enc[c.rounds])
	for r := c.rounds - 1; r >= 1; r-- {
		s.invShiftRows()
		s.invSubBytes()
		s.addRoundKey(&c.enc[r])
		s.invMixColumns()
	}
	s.invShiftRows()
	s.invSubBytes()
	s.addRoundKey(&c.enc[0])
	s.store(dst)
}

// OTPReference computes the pad OTPInto derives, on the from-scratch
// T-table AES under the engine's pad sub-key: the differential-test
// oracle for the stdlib path.
func (e *Engine) OTPReference(blockAddr uint64, counter uint64) [CacheLineSize]byte {
	c, err := NewCipher(e.padKey[:])
	if err != nil {
		panic(err)
	}
	var pad [CacheLineSize]byte
	var seed [BlockSize]byte
	binary.LittleEndian.PutUint64(seed[0:], blockAddr)
	for lane := 0; lane < CacheLineSize/BlockSize; lane++ {
		binary.LittleEndian.PutUint64(seed[8:], counter<<2|uint64(lane))
		c.Encrypt(pad[lane*BlockSize:], seed[:])
	}
	return pad
}
