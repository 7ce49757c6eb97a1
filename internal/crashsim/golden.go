package crashsim

import (
	"secpb/internal/addr"
	"secpb/internal/trace"
)

// shadow is the golden model: an independent replay of the trace's
// committed-store prefix. The engine's own program view cannot serve as
// the reference — it is updated before a store reaches the point of
// persistency, so at a store-accept crash point it is one store ahead of
// what recovery may legally reconstruct. The shadow applies a store only
// once the SecPB has accepted it, advancing monotonically as crash
// points are captured at ever-larger committed prefixes.
type shadow struct {
	ops      []trace.Op
	storeIdx []int // indices of store ops within ops, in program order
	mem      map[addr.Block][addr.BlockBytes]byte
	applied  int // stores applied so far
}

func newShadow(ops []trace.Op) *shadow {
	s := new(shadow)
	s.reset(ops)
	return s
}

// reset points the shadow at a new trace with no store applied,
// keeping its map and store-index storage.
func (s *shadow) reset(ops []trace.Op) {
	if s.mem == nil {
		s.mem = make(map[addr.Block][addr.BlockBytes]byte)
	} else {
		clear(s.mem)
	}
	s.ops = ops
	s.storeIdx = s.storeIdx[:0]
	for i, op := range ops {
		if op.Kind == trace.Store {
			s.storeIdx = append(s.storeIdx, i)
		}
	}
	s.applied = 0
}

// advanceTo applies stores until exactly committed of them are in the
// shadow. The committed count never decreases (acceptance is monotone
// within one run), so this is an incremental catch-up, not a rebuild.
func (s *shadow) advanceTo(committed int) {
	for s.applied < committed && s.applied < len(s.storeIdx) {
		applyStore(s.mem, s.ops[s.storeIdx[s.applied]])
		s.applied++
	}
}

// applyStore writes a store's data into its block of mem.
func applyStore(mem map[addr.Block][addr.BlockBytes]byte, op trace.Op) {
	block := addr.BlockOf(op.Addr)
	blk := mem[block]
	off := int(op.Addr - block.Addr())
	for i := 0; i < int(op.Size); i++ {
		blk[off+i] = byte(op.Data >> (8 * i))
	}
	mem[block] = blk
}

// view returns the shadow's plaintext image. The map is live — callers
// use it synchronously and must not retain it across further advances.
func (s *shadow) view() map[addr.Block][addr.BlockBytes]byte { return s.mem }
