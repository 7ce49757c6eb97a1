// SPB2 is the segmented columnar on-disk trace format: the Batch SoA
// layout, persisted. A file is the 5-byte header (magic + version)
// followed by independent segments; each segment carries per-kind op
// counts, delta/varint-compressed columns and an FNV-64a seal, so a
// reader can stream in constant memory, detect any bit flip, truncation
// or stale version with a typed error, and hand zero-copy column views
// straight to the engine's batched replay loop.
//
// Column encodings (all little-endian, all per segment):
//
//	kinds  2 bits per op, packed 4 per byte
//	sizes  run-length (size byte, varint run) over loads+stores in op order
//	addrs  zigzag varint delta from the previous same-kind address
//	       (separate load/store cursors, reset to 0 each segment)
//	gaps   presence bitmap (1 bit per op) + varint per nonzero gap
//	datas  1 codec byte, then per store in op order:
//	       0 raw varint, 1 fixed 8 bytes, 2 zigzag varint delta
//	       (the writer picks whichever is smallest for the segment)
//
// Store bursts delta to +8, sequence-numbered payloads delta to +1 and
// gaps inside bursts vanish into the bitmap, which is where the >=2x
// size win over the flat SPB1 encoding comes from.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"secpb/internal/seal"
)

// magic2 identifies the segmented columnar trace format.
var magic2 = [4]byte{'S', 'P', 'B', '2'}

// SPB2Version is the current format version, stamped after the magic.
// A reader rejects any other stamp with a *CorruptTraceError rather
// than guessing at a layout it does not know.
const SPB2Version = 1

// DefaultSegOps is the default ops-per-segment granularity: one
// segment per engine replay batch, so file segments and Batch chunks
// coincide.
const DefaultSegOps = DefaultBatchCap

// Decode-side sanity caps: a corrupted length or count must fail fast
// with a typed error, never drive a multi-gigabyte allocation.
const (
	maxSegPayload = 1 << 26
	maxSegOps     = 1 << 22
)

// Data-column codecs.
const (
	dataVarint byte = iota // raw uvarint per store
	dataRaw8               // fixed 8 bytes per store (incompressible payloads)
	dataDelta              // zigzag uvarint delta from the previous store's data
)

// CorruptTraceError reports structural damage in an SPB2 stream: a bad
// magic, an unsupported version stamp, a failed segment checksum, a
// truncation, or columns that do not decode to valid ops. It is typed
// so callers can distinguish "the trace is damaged" from I/O errors;
// nothing damaged is ever silently decoded. It stays apart from
// seal.CorruptError because it covers client uploads (an HTTP 400, not
// a quarantine) and carries the segment ordinal.
type CorruptTraceError struct {
	Seg    int // 0-based segment ordinal (-1 for the file header)
	Detail string
}

func (e *CorruptTraceError) Error() string {
	if e.Seg < 0 {
		return fmt.Sprintf("trace: corrupt SPB2 header: %s", e.Detail)
	}
	return fmt.Sprintf("trace: corrupt SPB2 segment %d: %s", e.Seg, e.Detail)
}

// EmptyTraceError reports a stream that is structurally valid (or
// entirely absent) but carries no operations: a zero-byte file, or an
// SPB2 header followed by zero segments. It is typed so tooling and the
// streaming service can distinguish "there is nothing here" from both
// I/O failures and corruption — converting or uploading an empty trace
// is almost always a caller bug, never something to silently succeed
// on.
type EmptyTraceError struct {
	Detail string
}

func (e *EmptyTraceError) Error() string {
	return fmt.Sprintf("trace: empty trace: %s", e.Detail)
}

func zigzag64(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag64(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

// SegWriter streams ops into the segmented columnar format. Ops
// accumulate in a columnar staging batch and seal into one segment
// every segOps ops (and on Flush), so memory stays constant regardless
// of trace length.
type SegWriter struct {
	w       *bufio.Writer
	segOps  int
	begun   bool
	n       uint64
	cols    *Batch
	scratch []byte
}

// NewSegWriter returns a SegWriter emitting to w with the given segment
// granularity (segOps <= 0 selects DefaultSegOps).
func NewSegWriter(w io.Writer, segOps int) *SegWriter {
	if segOps <= 0 {
		segOps = DefaultSegOps
	}
	return &SegWriter{
		w:      bufio.NewWriter(w),
		segOps: segOps,
		cols:   NewBatch(segOps),
	}
}

// Count returns the number of ops written.
func (sw *SegWriter) Count() uint64 { return sw.n }

// Write appends one op, sealing a segment when the staging batch fills.
func (sw *SegWriter) Write(op Op) error {
	if err := op.Validate(); err != nil {
		return err
	}
	sw.cols.Append(op)
	sw.n++
	if sw.cols.Len() >= sw.segOps {
		return sw.seal()
	}
	return nil
}

// WriteBatch appends a whole columnar batch (validated once), sealing
// segments as the staging batch fills. Segment boundaries depend only
// on the op stream and segOps, never on how the producer chunked it.
func (sw *SegWriter) WriteBatch(b *Batch) error {
	if err := b.Validate(); err != nil {
		return err
	}
	for i := 0; i < b.Len(); i++ {
		sw.cols.Append(b.Op(i))
		sw.n++
		if sw.cols.Len() >= sw.segOps {
			if err := sw.seal(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush seals any partial segment and flushes buffered output. It must
// be called when done; calling it mid-stream simply ends a segment
// early (segment boundaries are arbitrary).
func (sw *SegWriter) Flush() error {
	if err := sw.seal(); err != nil {
		return err
	}
	return sw.w.Flush()
}

// begin writes the file header once.
func (sw *SegWriter) begin() error {
	if sw.begun {
		return nil
	}
	sw.begun = true
	if _, err := sw.w.Write(magic2[:]); err != nil {
		return err
	}
	return sw.w.WriteByte(SPB2Version)
}

// seal encodes the staging batch as one segment and resets it.
func (sw *SegWriter) seal() error {
	if err := sw.begin(); err != nil {
		return err
	}
	if sw.cols.Len() == 0 {
		return nil
	}
	sw.scratch = encodeSegment(sw.scratch[:0], sw.cols)
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(sw.scratch)))
	if _, err := sw.w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := sw.w.Write(sw.scratch); err != nil {
		return err
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], seal.Add(seal.Offset, sw.scratch))
	if _, err := sw.w.Write(sum[:]); err != nil {
		return err
	}
	sw.cols.Reset()
	return nil
}

// encodeSegment appends the columnar payload for cols to p.
func encodeSegment(p []byte, cols *Batch) []byte {
	n := cols.Len()
	var nl, ns, nf int
	for _, k := range cols.Kinds {
		switch k {
		case Load:
			nl++
		case Store:
			ns++
		default:
			nf++
		}
	}
	p = binary.AppendUvarint(p, uint64(n))
	p = binary.AppendUvarint(p, uint64(nl))
	p = binary.AppendUvarint(p, uint64(ns))
	p = binary.AppendUvarint(p, uint64(nf))

	// Kinds: 2 bits each, 4 per byte, LSB first.
	var kb byte
	for i, k := range cols.Kinds {
		kb |= byte(k) << (2 * (i % 4))
		if i%4 == 3 {
			p = append(p, kb)
			kb = 0
		}
	}
	if n%4 != 0 {
		p = append(p, kb)
	}

	// Sizes: RLE over loads+stores in op order.
	runVal, runLen := uint8(0), 0
	for i, k := range cols.Kinds {
		if k == Fence {
			continue
		}
		s := cols.Sizes[i]
		if runLen > 0 && s == runVal {
			runLen++
			continue
		}
		if runLen > 0 {
			p = append(p, runVal)
			p = binary.AppendUvarint(p, uint64(runLen))
		}
		runVal, runLen = s, 1
	}
	if runLen > 0 {
		p = append(p, runVal)
		p = binary.AppendUvarint(p, uint64(runLen))
	}

	// Addrs: zigzag delta from the previous same-kind address.
	var prevLoad, prevStore uint64
	for i, k := range cols.Kinds {
		switch k {
		case Load:
			p = binary.AppendUvarint(p, zigzag64(int64(cols.Addrs[i]-prevLoad)))
			prevLoad = cols.Addrs[i]
		case Store:
			p = binary.AppendUvarint(p, zigzag64(int64(cols.Addrs[i]-prevStore)))
			prevStore = cols.Addrs[i]
		}
	}

	// Gaps: presence bitmap, then a varint per nonzero gap.
	var gb byte
	for i, g := range cols.Gaps {
		if g != 0 {
			gb |= 1 << (i % 8)
		}
		if i%8 == 7 {
			p = append(p, gb)
			gb = 0
		}
	}
	if n%8 != 0 {
		p = append(p, gb)
	}
	for _, g := range cols.Gaps {
		if g != 0 {
			p = binary.AppendUvarint(p, uint64(g))
		}
	}

	// Datas: pick the cheapest codec for this segment's store payloads.
	var rawCost, deltaCost int
	var prev uint64
	for i, k := range cols.Kinds {
		if k != Store {
			continue
		}
		d := cols.Datas[i]
		rawCost += uvarintLen(d)
		deltaCost += uvarintLen(zigzag64(int64(d - prev)))
		prev = d
	}
	codec := dataVarint
	best := rawCost
	if 8*ns < best {
		codec, best = dataRaw8, 8*ns
	}
	if deltaCost < best {
		codec = dataDelta
	}
	p = append(p, codec)
	prev = 0
	for i, k := range cols.Kinds {
		if k != Store {
			continue
		}
		d := cols.Datas[i]
		switch codec {
		case dataVarint:
			p = binary.AppendUvarint(p, d)
		case dataRaw8:
			p = binary.LittleEndian.AppendUint64(p, d)
		case dataDelta:
			p = binary.AppendUvarint(p, zigzag64(int64(d-prev)))
			prev = d
		}
	}
	return p
}

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// SegReader streams ops from the segmented columnar format, decoding
// one segment at a time (constant memory in trace length). Any
// structural damage surfaces as a *CorruptTraceError.
type SegReader struct {
	r       *bufio.Reader
	begun   bool
	segIdx  int
	payload []byte

	// Scalar-read cursor over the current decoded segment.
	seg *Batch
	pos int
}

// NewSegReader returns a SegReader consuming from r.
func NewSegReader(r io.Reader) *SegReader {
	return &SegReader{r: bufio.NewReader(r)}
}

// header consumes and validates the file header once.
func (sr *SegReader) header() error {
	if sr.begun {
		return nil
	}
	var hdr [5]byte
	if n, err := io.ReadFull(sr.r, hdr[:]); err != nil {
		if n == 0 {
			return &EmptyTraceError{Detail: "no bytes (not even a magic)"}
		}
		return &CorruptTraceError{Seg: -1, Detail: fmt.Sprintf("short header: %v", err)}
	}
	if [4]byte(hdr[:4]) != magic2 {
		return &CorruptTraceError{Seg: -1, Detail: "bad magic (not an SPB2 trace)"}
	}
	if hdr[4] != SPB2Version {
		return &CorruptTraceError{Seg: -1,
			Detail: fmt.Sprintf("version stamp %d, this reader handles %d", hdr[4], SPB2Version)}
	}
	sr.begun = true
	return nil
}

// corrupt builds a typed error for the current segment.
func (sr *SegReader) corrupt(format string, args ...interface{}) error {
	return &CorruptTraceError{Seg: sr.segIdx, Detail: fmt.Sprintf(format, args...)}
}

// ReadSegment decodes the next segment's ops into b (reset first).
// It returns io.EOF at a clean end of stream; anything else wrong is a
// *CorruptTraceError.
func (sr *SegReader) ReadSegment(b *Batch) error {
	if err := sr.header(); err != nil {
		return err
	}
	plen, err := binary.ReadUvarint(sr.r)
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return sr.corrupt("truncated segment length: %v", err)
	}
	if plen > maxSegPayload {
		return sr.corrupt("payload length %d exceeds cap %d", plen, maxSegPayload)
	}
	if uint64(cap(sr.payload)) < plen {
		sr.payload = make([]byte, plen)
	}
	sr.payload = sr.payload[:plen]
	if _, err := io.ReadFull(sr.r, sr.payload); err != nil {
		return sr.corrupt("truncated payload (%d bytes expected): %v", plen, err)
	}
	var sum [8]byte
	if _, err := io.ReadFull(sr.r, sum[:]); err != nil {
		return sr.corrupt("truncated seal: %v", err)
	}
	if seal.Add(seal.Offset, sr.payload) != binary.LittleEndian.Uint64(sum[:]) {
		return sr.corrupt("checksum mismatch")
	}
	if err := sr.decodePayload(b); err != nil {
		return err
	}
	sr.segIdx++
	return nil
}

// decodePayload unpacks the sealed columns into b and validates every
// decoded op.
func (sr *SegReader) decodePayload(b *Batch) error {
	p := sr.payload
	pos := 0
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	count, ok1 := uv()
	nl, ok2 := uv()
	ns, ok3 := uv()
	nf, ok4 := uv()
	if !(ok1 && ok2 && ok3 && ok4) {
		return sr.corrupt("truncated segment header")
	}
	if count > maxSegOps {
		return sr.corrupt("op count %d exceeds cap %d", count, maxSegOps)
	}
	if nl+ns+nf != count {
		return sr.corrupt("op counts disagree: %d+%d+%d != %d", nl, ns, nf, count)
	}
	n := int(count)
	b.Reset()
	if b.Cap() < n {
		*b = *NewBatch(n)
	}

	// Kinds.
	kbytes := (n + 3) / 4
	if pos+kbytes > len(p) {
		return sr.corrupt("truncated kinds column")
	}
	var gotL, gotS, gotF uint64
	for i := 0; i < n; i++ {
		k := Kind(p[pos+i/4] >> (2 * (i % 4)) & 3)
		switch k {
		case Load:
			gotL++
		case Store:
			gotS++
		case Fence:
			gotF++
		default:
			return sr.corrupt("op %d: invalid kind %d", i, k)
		}
		b.Kinds = append(b.Kinds, k)
	}
	pos += kbytes
	if gotL != nl || gotS != ns || gotF != nf {
		return sr.corrupt("kinds column disagrees with header counts")
	}

	// Sizes (loads+stores in op order), via RLE runs.
	nmem := int(nl + ns)
	sizes := make([]uint8, 0, nmem)
	for len(sizes) < nmem {
		if pos >= len(p) {
			return sr.corrupt("truncated sizes column")
		}
		val := p[pos]
		pos++
		run, ok := uv()
		if !ok {
			return sr.corrupt("truncated sizes run length")
		}
		if run == 0 || run > uint64(nmem-len(sizes)) {
			return sr.corrupt("sizes run %d overflows column (%d of %d filled)", run, len(sizes), nmem)
		}
		for j := uint64(0); j < run; j++ {
			sizes = append(sizes, val)
		}
	}

	// Addrs (same-kind delta chains), interleaving sizes back per op.
	var prevLoad, prevStore uint64
	si := 0
	for i := 0; i < n; i++ {
		switch b.Kinds[i] {
		case Fence:
			b.Addrs = append(b.Addrs, 0)
			b.Sizes = append(b.Sizes, 0)
			continue
		case Load:
			z, ok := uv()
			if !ok {
				return sr.corrupt("truncated addrs column at op %d", i)
			}
			prevLoad += uint64(unzigzag64(z))
			b.Addrs = append(b.Addrs, prevLoad)
		case Store:
			z, ok := uv()
			if !ok {
				return sr.corrupt("truncated addrs column at op %d", i)
			}
			prevStore += uint64(unzigzag64(z))
			b.Addrs = append(b.Addrs, prevStore)
		}
		b.Sizes = append(b.Sizes, sizes[si])
		si++
	}

	// Gaps: bitmap + varints.
	gbytes := (n + 7) / 8
	if pos+gbytes > len(p) {
		return sr.corrupt("truncated gap bitmap")
	}
	bitmap := p[pos : pos+gbytes]
	pos += gbytes
	for i := 0; i < n; i++ {
		if bitmap[i/8]&(1<<(i%8)) == 0 {
			b.Gaps = append(b.Gaps, 0)
			continue
		}
		g, ok := uv()
		if !ok {
			return sr.corrupt("truncated gaps column at op %d", i)
		}
		if g == 0 || g > 1<<32-1 {
			return sr.corrupt("op %d: gap %d outside (0, 2^32)", i, g)
		}
		b.Gaps = append(b.Gaps, uint32(g))
	}

	// Datas.
	if pos >= len(p) {
		return sr.corrupt("truncated data codec byte")
	}
	codec := p[pos]
	pos++
	if codec > dataDelta {
		return sr.corrupt("unknown data codec %d", codec)
	}
	var prev uint64
	for i := 0; i < n; i++ {
		if b.Kinds[i] != Store {
			b.Datas = append(b.Datas, 0)
			continue
		}
		var d uint64
		switch codec {
		case dataVarint:
			v, ok := uv()
			if !ok {
				return sr.corrupt("truncated data column at op %d", i)
			}
			d = v
		case dataRaw8:
			if pos+8 > len(p) {
				return sr.corrupt("truncated data column at op %d", i)
			}
			d = binary.LittleEndian.Uint64(p[pos:])
			pos += 8
		case dataDelta:
			z, ok := uv()
			if !ok {
				return sr.corrupt("truncated data column at op %d", i)
			}
			prev += uint64(unzigzag64(z))
			d = prev
		}
		b.Datas = append(b.Datas, d)
	}

	if pos != len(p) {
		return sr.corrupt("%d trailing payload bytes", len(p)-pos)
	}
	if err := b.Validate(); err != nil {
		return sr.corrupt("decoded ops invalid: %v", err)
	}
	return nil
}

// Read returns the next op, or io.EOF at a clean end of trace.
func (sr *SegReader) Read() (Op, error) {
	for sr.seg == nil || sr.pos >= sr.seg.Len() {
		if sr.seg == nil {
			sr.seg = NewBatch(DefaultSegOps)
		}
		if err := sr.ReadSegment(sr.seg); err != nil {
			return Op{}, err
		}
		sr.pos = 0
	}
	op := sr.seg.Op(sr.pos)
	sr.pos++
	return op, nil
}

// ReadAll drains the reader into a slice.
func (sr *SegReader) ReadAll() ([]Op, error) {
	var ops []Op
	for {
		op, err := sr.Read()
		if err == io.EOF {
			return ops, nil
		}
		if err != nil {
			return ops, err
		}
		ops = append(ops, op)
	}
}

// SPB2HeaderLen is the size of the file header (magic + version byte)
// that precedes the first sealed segment frame.
const SPB2HeaderLen = 5

// SPB2Header returns the 5-byte file header a valid SPB2 stream opens
// with. Appending sealed frames from ScanSegments after it yields a
// valid stream again — the framing contract the trace-streaming
// service's session log relies on.
func SPB2Header() []byte {
	return append(append([]byte(nil), magic2[:]...), SPB2Version)
}

// ScanSegments iterates the raw sealed segment frames of an SPB2
// stream without decoding the columns. fn receives each segment's
// ordinal and its complete frame — length varint, payload, FNV-64a
// seal — exactly as stored, so frames can be spliced byte-identically
// into another SPB2 stream (split a trace into per-segment upload
// bodies, or append accepted segments to a session log). Each frame's
// seal is verified before fn sees it; any structural damage, including
// trailing garbage after the last frame, surfaces as a
// *CorruptTraceError. The frame slice is reused between calls: copy it
// if it must outlive fn. Returns the number of segments scanned.
func ScanSegments(r io.Reader, fn func(seg int, frame []byte) error) (int, error) {
	br := bufio.NewReader(r)
	var hdr [SPB2HeaderLen]byte
	if n, err := io.ReadFull(br, hdr[:]); err != nil {
		if n == 0 {
			return 0, &EmptyTraceError{Detail: "no bytes (not even a magic)"}
		}
		return 0, &CorruptTraceError{Seg: -1, Detail: fmt.Sprintf("short header: %v", err)}
	}
	if [4]byte(hdr[:4]) != magic2 {
		return 0, &CorruptTraceError{Seg: -1, Detail: "bad magic (not an SPB2 trace)"}
	}
	if hdr[4] != SPB2Version {
		return 0, &CorruptTraceError{Seg: -1,
			Detail: fmt.Sprintf("version stamp %d, this reader handles %d", hdr[4], SPB2Version)}
	}
	var frame []byte
	for seg := 0; ; seg++ {
		frame = frame[:0]
		// Length varint, byte at a time so the raw bytes are retained.
		var plen uint64
		for shift := uint(0); ; shift += 7 {
			b, err := br.ReadByte()
			if err != nil {
				if err == io.EOF && shift == 0 {
					return seg, nil // clean end of stream
				}
				return seg, &CorruptTraceError{Seg: seg, Detail: fmt.Sprintf("truncated segment length: %v", err)}
			}
			frame = append(frame, b)
			if shift >= 64 {
				return seg, &CorruptTraceError{Seg: seg, Detail: "segment length varint overflows"}
			}
			plen |= uint64(b&0x7f) << shift
			if b < 0x80 {
				break
			}
		}
		if plen > maxSegPayload {
			return seg, &CorruptTraceError{Seg: seg, Detail: fmt.Sprintf("payload length %d exceeds cap %d", plen, maxSegPayload)}
		}
		off := len(frame)
		frame = append(frame, make([]byte, plen+8)...)
		if _, err := io.ReadFull(br, frame[off:]); err != nil {
			return seg, &CorruptTraceError{Seg: seg, Detail: fmt.Sprintf("truncated payload (%d bytes expected): %v", plen, err)}
		}
		if seal.Add(seal.Offset, frame[off:off+int(plen)]) != binary.LittleEndian.Uint64(frame[off+int(plen):]) {
			return seg, &CorruptTraceError{Seg: seg, Detail: "checksum mismatch"}
		}
		if fn != nil {
			if err := fn(seg, frame); err != nil {
				return seg, err
			}
		}
	}
}

// Format identifies an on-disk trace encoding.
type Format int

const (
	// FormatSPB1 is the flat per-op varint encoding (Writer/Reader).
	FormatSPB1 Format = iota + 1
	// FormatSPB2 is the segmented columnar encoding (SegWriter/SegReader).
	FormatSPB2
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatSPB1:
		return "spb1"
	case FormatSPB2:
		return "spb2"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// Decoder streams ops from either on-disk format, auto-detected from
// the magic, so tooling and replay accept old SPB1 traces and new SPB2
// traces through one interface.
type Decoder struct {
	format Format
	r1     *Reader
	r2     *SegReader
}

// NewDecoder sniffs r's magic and returns a streaming decoder for
// whichever format it holds.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br := bufio.NewReader(r)
	hdr, err := br.Peek(4)
	if err != nil {
		if len(hdr) == 0 {
			return nil, &EmptyTraceError{Detail: "no bytes (not even a magic)"}
		}
		return nil, &CorruptTraceError{Seg: -1, Detail: fmt.Sprintf("short header: %v", err)}
	}
	switch {
	case [4]byte(hdr) == magic:
		return &Decoder{format: FormatSPB1, r1: NewReader(br)}, nil
	case [4]byte(hdr) == magic2:
		return &Decoder{format: FormatSPB2, r2: NewSegReader(br)}, nil
	default:
		return nil, &CorruptTraceError{Seg: -1, Detail: "bad magic (neither SPB1 nor SPB2)"}
	}
}

// Format returns the detected encoding.
func (d *Decoder) Format() Format { return d.format }

// Read returns the next op, or io.EOF at end of trace.
func (d *Decoder) Read() (Op, error) {
	if d.r1 != nil {
		return d.r1.Read()
	}
	return d.r2.Read()
}

// ReadAll drains the decoder into a slice.
func (d *Decoder) ReadAll() ([]Op, error) {
	if d.r1 != nil {
		return d.r1.ReadAll()
	}
	return d.r2.ReadAll()
}

// readSegment fills b with the next chunk of ops: a whole decoded
// segment for SPB2, up to DefaultSegOps scalar reads for SPB1.
func (d *Decoder) readSegment(b *Batch) error {
	if d.r2 != nil {
		return d.r2.ReadSegment(b)
	}
	b.Reset()
	for b.Len() < DefaultSegOps {
		op, err := d.r1.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		b.Append(op)
	}
	if b.Len() == 0 {
		return io.EOF
	}
	return nil
}

// FileBatchSource replays a recorded trace as a trace.BatchSource (and
// scalar Source), so the harness and engine.RunBatch run recorded
// traces exactly as they run generated ones. Decoding is segment-at-a-
// time into one internal buffer. NextBatch hands out zero-copy views of
// it, which stay valid only until the next NextBatch call: the
// following segment decodes over them. The engine's replay loop
// finishes with each batch before it asks for the next one.
//
// NextBatch returning false means end of stream or error; callers must
// check Err afterwards. As with any BatchSource, consume the stream
// through NextBatch or Next, not both.
type FileBatchSource struct {
	c    io.Closer
	d    *Decoder
	buf  *Batch
	pos  int
	n    uint64
	err  error
	done bool
}

// NewFileBatchSource returns a batched source over r (either format).
// If r is an io.Closer, Close closes it.
func NewFileBatchSource(r io.Reader) (*FileBatchSource, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	s := &FileBatchSource{d: d, buf: NewBatch(DefaultSegOps)}
	if c, ok := r.(io.Closer); ok {
		s.c = c
	}
	return s, nil
}

// OpenFile opens a recorded trace file as a batched source.
func OpenFile(path string) (*FileBatchSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := NewFileBatchSource(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// advance decodes segments until the cursor points at unread ops.
func (s *FileBatchSource) advance() bool {
	if s.err != nil || s.done {
		return false
	}
	for s.pos >= s.buf.Len() {
		err := s.d.readSegment(s.buf)
		if err == io.EOF {
			s.done = true
			return false
		}
		if err != nil {
			s.err = err
			return false
		}
		s.pos = 0
	}
	return true
}

// NextBatch implements trace.BatchSource: b's columns become read-only
// views into the current decoded segment.
func (s *FileBatchSource) NextBatch(b *Batch) bool {
	if !s.advance() {
		return false
	}
	n := s.buf.Len() - s.pos
	if n > DefaultBatchCap {
		n = DefaultBatchCap
	}
	s.buf.viewInto(b, s.pos, s.pos+n)
	s.pos += n
	s.n += uint64(n)
	return true
}

// Next implements trace.Source.
func (s *FileBatchSource) Next() (Op, bool) {
	if !s.advance() {
		return Op{}, false
	}
	op := s.buf.Op(s.pos)
	s.pos++
	s.n++
	return op, true
}

// Count returns the number of ops handed out so far.
func (s *FileBatchSource) Count() uint64 { return s.n }

// Format returns the underlying file's encoding.
func (s *FileBatchSource) Format() Format { return s.d.Format() }

// Err returns the first decode error (nil after a clean end of stream).
func (s *FileBatchSource) Err() error { return s.err }

// Close closes the underlying file, if any.
func (s *FileBatchSource) Close() error {
	if s.c == nil {
		return nil
	}
	return s.c.Close()
}
