package crypto

import (
	"bytes"
	stdaes "crypto/aes"
	stdsha "crypto/sha512"
	"encoding/hex"
	"testing"
	"testing/quick"

	"secpb/internal/xrand"
)

// FIPS-197 Appendix C known-answer vectors.
func TestAESFIPS197Vectors(t *testing.T) {
	plain, _ := hex.DecodeString("00112233445566778899aabbccddeeff")
	cases := []struct {
		key, want string
	}{
		{"000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"},
		{"000102030405060708090a0b0c0d0e0f1011121314151617", "dda97ca4864cdfe06eaf70a0ec0d7191"},
		{"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f", "8ea2b7ca516745bfeafc49904b496089"},
	}
	for _, tc := range cases {
		key, _ := hex.DecodeString(tc.key)
		want, _ := hex.DecodeString(tc.want)
		c, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 16)
		c.Encrypt(got, plain)
		if !bytes.Equal(got, want) {
			t.Errorf("AES-%d encrypt = %x, want %x", len(key)*8, got, want)
		}
		dec := make([]byte, 16)
		c.Decrypt(dec, got)
		if !bytes.Equal(dec, plain) {
			t.Errorf("AES-%d decrypt = %x, want %x", len(key)*8, dec, plain)
		}
	}
}

func TestAESMatchesStdlib(t *testing.T) {
	r := xrand.New(1)
	for trial := 0; trial < 200; trial++ {
		keyLen := []int{16, 24, 32}[trial%3]
		key := make([]byte, keyLen)
		src := make([]byte, 16)
		for i := range key {
			key[i] = byte(r.Uint64())
		}
		for i := range src {
			src[i] = byte(r.Uint64())
		}
		ours, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stdaes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 16)
		want := make([]byte, 16)
		ours.Encrypt(got, src)
		ref.Encrypt(want, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: AES-%d mismatch vs stdlib", trial, keyLen*8)
		}
	}
}

// TestAESTableMatchesGeneric cross-checks the T-table encrypt fast path
// against the independent matrix implementation for all key sizes.
func TestAESTableMatchesGeneric(t *testing.T) {
	r := xrand.New(7)
	for trial := 0; trial < 300; trial++ {
		keyLen := []int{16, 24, 32}[trial%3]
		key := make([]byte, keyLen)
		src := make([]byte, 16)
		for i := range key {
			key[i] = byte(r.Uint64())
		}
		for i := range src {
			src[i] = byte(r.Uint64())
		}
		c, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		fast := make([]byte, 16)
		ref := make([]byte, 16)
		c.Encrypt(fast, src)
		c.encryptGeneric(ref, src)
		if !bytes.Equal(fast, ref) {
			t.Fatalf("trial %d: AES-%d table path %x != generic %x", trial, keyLen*8, fast, ref)
		}
	}
}

func TestAESDecryptInverts(t *testing.T) {
	check := func(key [16]byte, block [16]byte) bool {
		c, err := NewCipher(key[:])
		if err != nil {
			return false
		}
		ct := make([]byte, 16)
		pt := make([]byte, 16)
		c.Encrypt(ct, block[:])
		c.Decrypt(pt, ct)
		return bytes.Equal(pt, block[:])
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAESKeySizeErrors(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 33} {
		if _, err := NewCipher(make([]byte, n)); err == nil {
			t.Errorf("NewCipher accepted %d-byte key", n)
		}
	}
}

func TestAESShortBlockPanics(t *testing.T) {
	c, _ := NewCipher(make([]byte, 16))
	defer func() {
		if recover() == nil {
			t.Fatal("short block did not panic")
		}
	}()
	c.Encrypt(make([]byte, 16), make([]byte, 15))
}

func TestSHA512KnownVectors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"},
		{"abc", "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"},
		{"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
			"8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"},
	}
	for _, tc := range cases {
		got := Sum512([]byte(tc.in))
		if hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("SHA512(%q) = %x", tc.in, got)
		}
	}
}

func TestSHA512MatchesStdlibAllLengths(t *testing.T) {
	r := xrand.New(2)
	for n := 0; n < 300; n++ {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(r.Uint64())
		}
		got := Sum512(msg)
		want := stdsha.Sum512(msg)
		if got != want {
			t.Fatalf("length %d: digest mismatch vs stdlib", n)
		}
	}
}

func TestSHA512IncrementalWrite(t *testing.T) {
	msg := bytes.Repeat([]byte("secpb"), 100)
	whole := Sum512(msg)
	s := NewSHA512()
	for i := 0; i < len(msg); i += 7 {
		end := i + 7
		if end > len(msg) {
			end = len(msg)
		}
		s.Write(msg[i:end])
	}
	var got [Size512]byte
	copy(got[:], s.Sum(nil))
	if got != whole {
		t.Error("incremental digest differs from one-shot digest")
	}
}

func TestSHA512SumNonDestructive(t *testing.T) {
	s := NewSHA512()
	s.Write([]byte("hello "))
	first := s.Sum(nil)
	second := s.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Fatal("Sum modified state")
	}
	s.Write([]byte("world"))
	full := s.Sum(nil)
	want := stdsha.Sum512([]byte("hello world"))
	if !bytes.Equal(full, want[:]) {
		t.Error("continued write after Sum produced wrong digest")
	}
}

func TestSHA512Reset(t *testing.T) {
	s := NewSHA512()
	s.Write([]byte("garbage"))
	s.Reset()
	s.Write([]byte("abc"))
	got := s.Sum(nil)
	want := stdsha.Sum512([]byte("abc"))
	if !bytes.Equal(got, want[:]) {
		t.Error("Reset did not restore initial state")
	}
}

func TestEngineEncryptDecryptRoundTrip(t *testing.T) {
	e, err := NewEngine([]byte("test key"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(data [CacheLineSize]byte, addr, ctr uint64) bool {
		ct := e.Encrypt(&data, addr, ctr)
		pt := e.Decrypt(&ct, addr, ctr)
		return pt == data
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEngineOTPDataIndependent(t *testing.T) {
	e, _ := NewEngine([]byte("k"))
	p1 := e.OTP(0x1000, 5)
	p2 := e.OTP(0x1000, 5)
	if p1 != p2 {
		t.Error("OTP not deterministic for same (addr, counter)")
	}
	if e.OTP(0x1000, 6) == p1 {
		t.Error("OTP unchanged when counter changed")
	}
	if e.OTP(0x1040, 5) == p1 {
		t.Error("OTP unchanged when address changed")
	}
}

func TestEngineCiphertextChangesWithCounter(t *testing.T) {
	// Counter freshness: re-encrypting the same plaintext with a bumped
	// counter must produce different ciphertext (defeats snooping of
	// repeated writes).
	e, _ := NewEngine([]byte("k"))
	var data [CacheLineSize]byte
	copy(data[:], "same plaintext")
	c1 := e.Encrypt(&data, 0x40, 1)
	c2 := e.Encrypt(&data, 0x40, 2)
	if c1 == c2 {
		t.Error("ciphertext identical across counter bump")
	}
}

func TestEngineMACDetectsTampering(t *testing.T) {
	e, _ := NewEngine([]byte("k"))
	var ct [CacheLineSize]byte
	copy(ct[:], "ciphertext block")
	tag := e.MAC(&ct, 0x80, 7)
	// Same inputs verify.
	if e.MAC(&ct, 0x80, 7) != tag {
		t.Fatal("MAC not deterministic")
	}
	// Spoofing: data modified.
	mod := ct
	mod[3] ^= 1
	if e.MAC(&mod, 0x80, 7) == tag {
		t.Error("MAC unchanged after data tamper")
	}
	// Splicing: moved to another address.
	if e.MAC(&ct, 0xC0, 7) == tag {
		t.Error("MAC unchanged after address splice")
	}
	// Replay: older counter.
	if e.MAC(&ct, 0x80, 6) == tag {
		t.Error("MAC unchanged after counter rollback")
	}
}

func TestEngineKeySeparation(t *testing.T) {
	e1, _ := NewEngine([]byte("key-one"))
	e2, _ := NewEngine([]byte("key-two"))
	var data [CacheLineSize]byte
	if e1.Encrypt(&data, 0, 0) == e2.Encrypt(&data, 0, 0) {
		t.Error("different engine keys produced same ciphertext")
	}
}

func TestHashNodeDomainSeparation(t *testing.T) {
	e, _ := NewEngine([]byte("k"))
	var blk [CacheLineSize]byte
	mac := e.MAC(&blk, 0, 0)
	node := e.HashNode(make([]byte, CacheLineSize))
	if bytes.Equal(mac[:], node[:MACSize]) {
		t.Error("MAC and HashNode collide on same-length input")
	}
	n2 := e.HashNode([]byte{1, 2, 3})
	if node == n2 {
		t.Error("HashNode ignores input")
	}
}

func BenchmarkAESEncryptBlock(b *testing.B) {
	c, _ := NewCipher(make([]byte, 16))
	src := make([]byte, 16)
	dst := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(dst, src)
	}
}

func BenchmarkSHA512Block(b *testing.B) {
	msg := make([]byte, 128)
	b.SetBytes(128)
	for i := 0; i < b.N; i++ {
		Sum512(msg)
	}
}

func BenchmarkEngineEncryptLine(b *testing.B) {
	e, _ := NewEngine([]byte("k"))
	var data [CacheLineSize]byte
	b.SetBytes(CacheLineSize)
	for i := 0; i < b.N; i++ {
		_ = e.Encrypt(&data, uint64(i)<<6, uint64(i))
	}
}

func BenchmarkEngineMAC(b *testing.B) {
	e, _ := NewEngine([]byte("k"))
	var ct [CacheLineSize]byte
	b.SetBytes(CacheLineSize)
	for i := 0; i < b.N; i++ {
		_ = e.MAC(&ct, uint64(i)<<6, uint64(i))
	}
}

func TestPadReuseLeaksXOR(t *testing.T) {
	// WHY counter freshness is non-negotiable: encrypting two different
	// plaintexts under the same (address, counter) pad lets a snooping
	// attacker compute pt1 XOR pt2 without any key material. This is
	// the leak the split counters (and their crash consistency!)
	// prevent — and exactly what goes wrong if a crash rolls a counter
	// back while new data persisted (the recoverability gap).
	e, _ := NewEngine([]byte("k"))
	var pt1, pt2 [CacheLineSize]byte
	copy(pt1[:], "attack at dawn----------------")
	copy(pt2[:], "attack at dusk----------------")
	ct1 := e.Encrypt(&pt1, 0x1000, 5)
	ct2 := e.Encrypt(&pt2, 0x1000, 5) // same counter: pad reuse!
	var leaked, truth [CacheLineSize]byte
	XOR(&leaked, &ct1, &ct2)
	XOR(&truth, &pt1, &pt2)
	if leaked != truth {
		t.Fatal("pad reuse did not leak the plaintext XOR (model broken)")
	}
	// With a fresh counter the relationship disappears.
	ct2fresh := e.Encrypt(&pt2, 0x1000, 6)
	XOR(&leaked, &ct1, &ct2fresh)
	if leaked == truth {
		t.Fatal("fresh counter still leaks plaintext XOR")
	}
}

// xorReference is the byte loop XOR replaced: the oracle for the
// word-wide form.
func xorReference(dst, a, b *[CacheLineSize]byte) {
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}

// TestXORMatchesByteLoop holds the word-wide XOR against the byte loop
// over random blocks, into a separate destination and in place (dst ==
// a, the staged-drain encrypt, and dst == b).
func TestXORMatchesByteLoop(t *testing.T) {
	r := xrand.New(11)
	fill := func(blk *[CacheLineSize]byte) {
		for i := range blk {
			blk[i] = byte(r.Uint64())
		}
	}
	for trial := 0; trial < 500; trial++ {
		var a, b, got, want [CacheLineSize]byte
		fill(&a)
		fill(&b)
		XOR(&got, &a, &b)
		xorReference(&want, &a, &b)
		if got != want {
			t.Fatalf("trial %d: XOR %x, byte loop %x", trial, got, want)
		}
		inA, inB := a, b
		XOR(&inA, &inA, &b)
		XOR(&inB, &a, &inB)
		if inA != want || inB != want {
			t.Fatalf("trial %d: in-place XOR differs from the byte loop", trial)
		}
	}
}

func BenchmarkXOR(b *testing.B) {
	var x, y [CacheLineSize]byte
	for i := range x {
		x[i], y[i] = byte(i), byte(3*i)
	}
	b.SetBytes(CacheLineSize)
	for i := 0; i < b.N; i++ {
		XOR(&x, &x, &y)
	}
}
