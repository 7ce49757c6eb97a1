package crypto

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// memoScriptInputs decodes one step of a FuzzHashMemoVsDirect script.
// Inputs come from small pools so that a script revisits them (hits)
// and overflows a tiny table with distinct ones (evictions):
//   - op%4 == 0: a MAC over one of four addresses, four counters and
//     four ciphertexts, so the same address recurs under different
//     counters and the same (address, counter) under different data;
//   - op%4 == 1: a node input of 0, 8, 64, 71 or 72 bytes whose
//     content is one of four patterns, so equal lengths carry
//     different bytes and equal prefixes carry different lengths;
//   - op%4 == 2: a node input longer than MemoNodeInputMax, which
//     must bypass the memo;
//   - op%4 == 3: a pad for one of four addresses under one of four
//     counters, so the same address recurs under different counters.
func memoScriptInputs(op, arg byte) (kind int, ct [CacheLineSize]byte, a, c uint64, node []byte) {
	kind = int(op % 4)
	switch kind {
	case 0, 3:
		for i := range ct {
			ct[i] = byte(i) ^ (op>>2&3)*0x55
		}
		a = uint64(arg&3) << 6
		c = uint64(arg >> 2 & 3)
	case 1:
		n := []int{0, 8, 64, 71, MemoNodeInputMax}[int(arg)%5]
		node = bytes.Repeat([]byte{op >> 2 & 3}, n)
		if n > 0 {
			node[n-1] ^= arg >> 5
		}
	case 2:
		node = bytes.Repeat([]byte{arg}, MemoNodeInputMax+1+int(op>>2))
	}
	return kind, ct, a, c, node
}

// FuzzHashMemoVsDirect drives a memoized engine with a two-slot memo
// and a plain engine under the same key through the same script of
// MACs, node hashes and pads: every output must agree, and the memo's
// counts must account for every call — MACs, pads and short node
// inputs as a hit or a miss, long node inputs as a bypass. Sixteen pad
// inputs share two slots, so pads evict each other constantly.
func FuzzHashMemoVsDirect(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 0, 8, 0, 0, 0, 4, 0, 8})               // one address, three counters, replayed
	f.Add([]byte{0, 1, 4, 1, 8, 1, 12, 1, 0, 1, 4, 1})              // one (address, counter), four ciphertexts
	f.Add([]byte{1, 2, 5, 2, 9, 2, 13, 2, 1, 2, 5, 2, 1, 34})       // 64-byte nodes, four contents
	f.Add([]byte{1, 3, 1, 4, 1, 3, 1, 4, 1, 0, 1, 1})               // 71- vs 72-byte, empty, 8-byte
	f.Add([]byte{2, 0, 6, 7, 2, 0, 1, 4, 2, 9, 0, 2})               // over-long inputs interleaved
	f.Add([]byte{0, 255, 1, 255, 2, 255, 0, 255, 1, 255, 3, 254})   // mixed, mostly evicting
	f.Add([]byte{3, 0, 3, 4, 3, 8, 3, 12, 3, 0, 3, 4, 3, 8, 3, 12}) // one address, four counters, replayed
	f.Add([]byte{3, 5, 0, 5, 3, 5, 7, 1, 3, 6, 3, 5, 3, 9, 3, 6})   // pads beside the MAC of the same (address, counter)
	f.Fuzz(func(t *testing.T, script []byte) {
		key := []byte("memo fuzz key")
		direct, err := NewEngine(key)
		if err != nil {
			t.Fatal(err)
		}
		memoized, err := NewEngine(key)
		if err != nil {
			t.Fatal(err)
		}
		m := NewHashMemo(2)
		memoized.SetMemo(m)
		var macs, nodes, long, pads uint64
		for ; len(script) >= 2; script = script[2:] {
			kind, ct, a, c, node := memoScriptInputs(script[0], script[1])
			switch kind {
			case 0:
				macs++
				var got, want [MACSize]byte
				memoized.MACInto(&got, &ct, a, c)
				direct.MACInto(&want, &ct, a, c)
				if got != want {
					t.Fatalf("MAC(addr %#x, ctr %d) differs through the memo", a, c)
				}
			case 3:
				pads++
				var got, want [CacheLineSize]byte
				memoized.OTPInto(&got, a, c)
				direct.OTPInto(&want, a, c)
				if got != want {
					t.Fatalf("pad(addr %#x, ctr %d) differs through the memo", a, c)
				}
			default:
				if len(node) > MemoNodeInputMax {
					long++
				} else {
					nodes++
				}
				if memoized.HashNode(node) != direct.HashNode(node) {
					t.Fatalf("HashNode(%d bytes) differs through the memo", len(node))
				}
			}
		}
		s := m.Stats()
		if s.MACHits+s.MACMisses != macs || s.NodeHits+s.NodeMisses != nodes || s.NodeBypasses != long || s.PadHits+s.PadMisses != pads {
			t.Fatalf("memo counts %+v do not account for %d MACs, %d node hashes, %d long inputs, %d pads", s, macs, nodes, long, pads)
		}
	})
}

// TestHashMemoRebindsOnKeyChange moves a warm memo to an engine under a
// different key: it must start empty there, so no tag or digest
// computed under the first key is ever returned under the second.
func TestHashMemoRebindsOnKeyChange(t *testing.T) {
	e1, err := NewEngine([]byte("memo key one"))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine([]byte("memo key two"))
	if err != nil {
		t.Fatal(err)
	}
	plain2, err := NewEngine([]byte("memo key two"))
	if err != nil {
		t.Fatal(err)
	}
	m := NewHashMemo(16)
	var ct [CacheLineSize]byte
	node := make([]byte, 64)
	e1.SetMemo(m)
	e1.MAC(&ct, 0x40, 3)
	e1.HashNode(node)
	e1.OTP(0x40, 3)
	e2.SetMemo(m)
	if s := m.Stats(); s != (MemoStats{}) {
		t.Fatalf("memo kept counts across a key change: %+v", s)
	}
	if e2.MAC(&ct, 0x40, 3) != plain2.MAC(&ct, 0x40, 3) || e2.HashNode(node) != plain2.HashNode(node) ||
		e2.OTP(0x40, 3) != plain2.OTP(0x40, 3) {
		t.Fatal("memo returned an output computed under another key")
	}
	if s := m.Stats(); s.MACHits != 0 || s.NodeHits != 0 || s.PadHits != 0 {
		t.Fatalf("memo hit across a key change: %+v", s)
	}
	// Re-attaching under the same key keeps the memo warm.
	e2.SetMemo(m)
	e2.MAC(&ct, 0x40, 3)
	if s := m.Stats(); s.MACHits != 1 {
		t.Fatalf("same-key re-attach dropped the memo: %+v", s)
	}
}

// TestHashMemoResetMatchesNew: a warm memo, once reset, holds nothing —
// the next lookups all miss, with counts equal to a new memo's over the
// same calls — and a reset memo moved to another key still rebinds.
func TestHashMemoResetMatchesNew(t *testing.T) {
	e, err := NewEngine([]byte("memo reset key"))
	if err != nil {
		t.Fatal(err)
	}
	var ct [CacheLineSize]byte
	node := make([]byte, 64)
	calls := func(e *Engine) {
		for i := uint64(0); i < 8; i++ {
			e.MAC(&ct, i<<6, 3)
			e.HashNode(node)
			e.OTP(i<<6, 3)
		}
	}
	m := NewHashMemo(16)
	e.SetMemo(m)
	calls(e)
	m.Reset()
	if s := m.Stats(); s != (MemoStats{}) {
		t.Fatalf("Reset kept counts: %+v", s)
	}
	calls(e)
	fresh := NewHashMemo(16)
	e.SetMemo(fresh)
	calls(e)
	if m.Stats() != fresh.Stats() || m.Stats().MACMisses == 0 {
		t.Fatalf("reset memo %+v, new memo %+v", m.Stats(), fresh.Stats())
	}
	// A memo refilled after Reset keeps its binding's meaning: moved to
	// an engine under another key, it starts empty there.
	e.SetMemo(m)
	m.Reset()
	calls(e)
	other, err := NewEngine([]byte("memo reset other key"))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewEngine([]byte("memo reset other key"))
	if err != nil {
		t.Fatal(err)
	}
	other.SetMemo(m)
	if s := m.Stats(); s != (MemoStats{}) {
		t.Fatalf("memo kept counts across a key change after Reset: %+v", s)
	}
	if other.MAC(&ct, 0, 3) != plain.MAC(&ct, 0, 3) || other.OTP(0, 3) != plain.OTP(0, 3) || m.Stats().MACHits+m.Stats().PadHits != 0 {
		t.Fatalf("reset memo served another key's output: %+v", m.Stats())
	}
}

// TestMixPadMatchesMix pins the pad table's index to mix over the
// assembled 16-byte input, so all three tables spread their inputs the
// same way.
func TestMixPadMatchesMix(t *testing.T) {
	var in [16]byte
	for _, ac := range [][2]uint64{{0, 0}, {0x40, 1}, {0x1000_0040, 7}, {^uint64(0), 1 << 40}} {
		binary.LittleEndian.PutUint64(in[0:], ac[0])
		binary.LittleEndian.PutUint64(in[8:], ac[1])
		for _, shift := range []uint{54, 62, 63} {
			if got, want := mixPad(ac[0], ac[1], shift), mix(in[:], shift); got != want {
				t.Fatalf("mixPad(%#x, %d) = %d, mix = %d", ac[0], ac[1], got, want)
			}
		}
	}
}
