package trace

// DefaultBatchCap is the batch capacity the engine's batched replay
// path uses: large enough to amortize the per-batch refill call far
// below the per-op cost, small enough (~100KB of columns) to stay
// cache- and allocation-friendly.
const DefaultBatchCap = 4096

// Batch is a fixed-capacity columnar chunk of ops: one slice per Op
// field, appended in lockstep. Producers (the workload generator) fill
// the columns directly and consumers (the engine's batched replay loop)
// read them back with no per-op interface dispatch; Op(i) reassembles a
// scalar Op when one is needed.
type Batch struct {
	Kinds []Kind
	Addrs []uint64
	Sizes []uint8
	Datas []uint64
	Gaps  []uint32
}

// NewBatch returns an empty batch with the given capacity.
func NewBatch(capacity int) *Batch {
	if capacity <= 0 {
		capacity = DefaultBatchCap
	}
	return &Batch{
		Kinds: make([]Kind, 0, capacity),
		Addrs: make([]uint64, 0, capacity),
		Sizes: make([]uint8, 0, capacity),
		Datas: make([]uint64, 0, capacity),
		Gaps:  make([]uint32, 0, capacity),
	}
}

// Len returns the number of ops in the batch.
func (b *Batch) Len() int { return len(b.Kinds) }

// Cap returns the batch capacity.
func (b *Batch) Cap() int { return cap(b.Kinds) }

// Full reports whether the batch has reached its capacity.
func (b *Batch) Full() bool { return len(b.Kinds) == cap(b.Kinds) }

// Reset empties the batch, keeping its capacity.
func (b *Batch) Reset() {
	b.Kinds = b.Kinds[:0]
	b.Addrs = b.Addrs[:0]
	b.Sizes = b.Sizes[:0]
	b.Datas = b.Datas[:0]
	b.Gaps = b.Gaps[:0]
}

// Append pushes one op onto every column. The caller is responsible for
// capacity (check Full) and validity (Validate checks whole batches).
func (b *Batch) Append(op Op) {
	b.Kinds = append(b.Kinds, op.Kind)
	b.Addrs = append(b.Addrs, op.Addr)
	b.Sizes = append(b.Sizes, op.Size)
	b.Datas = append(b.Datas, op.Data)
	b.Gaps = append(b.Gaps, op.Gap)
}

// Op reassembles the i'th op from the columns.
func (b *Batch) Op(i int) Op {
	return Op{
		Kind: b.Kinds[i],
		Addr: b.Addrs[i],
		Size: b.Sizes[i],
		Data: b.Datas[i],
		Gap:  b.Gaps[i],
	}
}

// Validate checks every op in the batch, returning the first error.
// Consumers validate once per batch instead of once per op, and the
// check itself is columnar: the common all-valid case scans the kind
// and size columns without materializing an Op; only a failing index
// reassembles its op to produce the identical per-op error.
func (b *Batch) Validate() error {
	for i, k := range b.Kinds {
		switch k {
		case Load, Store:
			sz := b.Sizes[i]
			if sz == 0 || sz > 8 ||
				(b.Addrs[i]&(uint64(sz)-1) != 0 && sz&(sz-1) == 0) {
				return b.Op(i).Validate()
			}
		case Fence:
		default:
			return b.Op(i).Validate()
		}
	}
	return nil
}

// BatchSource is the simulator's one op stream: ops arrive in columnar
// chunks. An implementation either fills b (after resetting it) with up
// to its capacity of ops, as the workload generator does, or points b's
// columns at read-only views of ops it already holds, as cursors and
// recorded-trace sources do; either way it reports whether b holds any
// ops, and false means end of stream.
type BatchSource interface {
	NextBatch(b *Batch) bool
}

// SliceBatchSource replays a pre-materialized op stream in columnar
// chunks, for benchmarks, tests, crash injection and experiment grids
// that want to replay the same ops more than once without generator
// cost in the loop. NextBatch installs zero-copy subslice views into the
// consumer's batch instead of copying op by op.
type SliceBatchSource struct {
	cols Batch
	pos  int
}

// NewSliceBatchSource returns a BatchSource over ops, decomposing them
// into columns once.
func NewSliceBatchSource(ops []Op) *SliceBatchSource {
	b := NewBatch(len(ops))
	for _, op := range ops {
		b.Append(op)
	}
	return NewBatchCursor(b)
}

// NewSliceSource is NewSliceBatchSource under its older name.
func NewSliceSource(ops []Op) *SliceBatchSource { return NewSliceBatchSource(ops) }

// NewBatchCursor returns an independent read-only cursor over b's ops,
// sharing b's columns without copying them. Any number of cursors may
// read one batch concurrently, provided nothing modifies b while they
// are live.
func NewBatchCursor(b *Batch) *SliceBatchSource {
	return &SliceBatchSource{cols: *b}
}

// Reset rewinds the source to the start of the slice.
func (s *SliceBatchSource) Reset() { s.pos = 0 }

// NextBatch points b's columns at the next chunk of ops. The views
// alias the source's columns: consumers treat batches as read-only
// (the engine's replay loop does), and b's own backing array, if any,
// is left untouched for the next filling source.
func (s *SliceBatchSource) NextBatch(b *Batch) bool {
	n := s.cols.Len() - s.pos
	if n <= 0 {
		return false
	}
	if n > DefaultBatchCap {
		n = DefaultBatchCap
	}
	s.cols.viewInto(b, s.pos, s.pos+n)
	s.pos += n
	return true
}

// viewInto points dst's columns at ops [lo, hi) of b without copying.
// dst is then a read-only view: a Reset and Append through it would
// overwrite b's ops in place. Capping the capacity at hi at least keeps
// an append past the view from reaching b's later ops.
func (b *Batch) viewInto(dst *Batch, lo, hi int) {
	dst.Kinds = b.Kinds[lo:hi:hi]
	dst.Addrs = b.Addrs[lo:hi:hi]
	dst.Sizes = b.Sizes[lo:hi:hi]
	dst.Datas = b.Datas[lo:hi:hi]
	dst.Gaps = b.Gaps[lo:hi:hi]
}
