// Package seal is the one durable-record primitive the simulator's own
// files share: the cell cache (.spbc), the service's session manifests,
// log chains and result digests, the SPB2 segment seals, and the
// in-simulator metadata digests of the NV image and the recovery
// journals.
//
// The rule it encodes is "do not trust a record until its seal checks,
// publish it only by atomic rename": a record is
//
//	magic | kind stamp | payload | FNV-64a seal over everything before it
//
// and Open verifies the seal, then the magic, then the kind stamp,
// before a single payload byte is decoded. WriteAtomic publishes a file
// so that a crash at any instant leaves either the old bytes or the
// complete new ones under its name, and Move renames an entry and syncs
// both parent directories so the move survives power loss.
package seal

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Offset is the FNV-64a offset basis: the fold of zero bytes.
const Offset uint64 = 14695981039346656037

const prime uint64 = 1099511628211

// Add folds p into the running FNV-64a state h. The state is a plain
// integer, so a fold can be stored and resumed later (the service's
// log chain survives checkpoints this way), which hash/fnv cannot do.
func Add(h uint64, p []byte) uint64 {
	for _, b := range p {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// AddU64 folds v's eight little-endian bytes into h.
func AddU64(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h ^= uint64(byte(v >> i))
		h *= prime
	}
	return h
}

// CorruptError reports a durable file that failed verification: short,
// a seal mismatch, a bad magic, a stale kind stamp, or a payload that
// does not decode exactly. Callers treat it as "this file cannot be
// trusted", never as an ordinary I/O failure: the cell cache
// recomputes the record, the service quarantines the session.
type CorruptError struct {
	Path   string
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("seal: corrupt record %s: %s", e.Path, e.Detail)
}

// Writer serializes a record payload in fixed field order: fixed-width
// little-endian integers and u64-length-prefixed strings.
type Writer struct{ buf []byte }

func (w *Writer) U64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) I64(v int64)   { w.U64(uint64(v)) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }
func (w *Writer) Str(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes returns the payload written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Reader decodes a payload written by Writer. The first over-read
// sticks: every later field reads as zero and Done reports the error.
type Reader struct {
	path string
	buf  []byte
	err  error
}

func (r *Reader) fail(detail string) {
	if r.err == nil {
		r.err = &CorruptError{Path: r.path, Detail: detail}
	}
}

func (r *Reader) U64() uint64 {
	if len(r.buf) < 8 {
		r.fail("truncated payload")
		r.buf = nil
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

func (r *Reader) Str() string {
	n := r.U64()
	if n > uint64(len(r.buf)) {
		r.fail("truncated payload")
		r.buf = nil
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// Done reports whether the payload decoded cleanly and completely: no
// over-read and no trailing bytes (a short record that still seals
// correctly must not silently zero-fill fields).
func (r *Reader) Done() error {
	if len(r.buf) != 0 {
		r.fail(fmt.Sprintf("%d trailing bytes after payload", len(r.buf)))
	}
	return r.err
}

// Seal frames payload as one record: magic, the kind stamp as a
// u64-length string, the payload, and the FNV-64a seal over all of it.
func Seal(magic, kind string, payload []byte) []byte {
	w := Writer{buf: make([]byte, 0, len(magic)+8+len(kind)+len(payload)+8)}
	w.buf = append(w.buf, magic...)
	w.Str(kind)
	w.buf = append(w.buf, payload...)
	w.U64(Add(Offset, w.buf))
	return w.buf
}

// Open verifies a record read from path and returns a Reader over its
// payload. It checks the seal, then the magic, then the kind stamp;
// any failure is a *CorruptError and no payload byte has been looked
// at. The caller decodes the payload and must then call Done.
func Open(path string, raw []byte, magic, kind string) (*Reader, error) {
	bad := func(format string, args ...any) (*Reader, error) {
		return nil, &CorruptError{Path: path, Detail: fmt.Sprintf(format, args...)}
	}
	if len(raw) < len(magic)+8 {
		return bad("short record: %d bytes", len(raw))
	}
	body := raw[:len(raw)-8]
	if got, want := binary.LittleEndian.Uint64(raw[len(body):]), Add(Offset, body); got != want {
		return bad("seal mismatch: stored %016x computed %016x", got, want)
	}
	if string(body[:len(magic)]) != magic {
		return bad("bad magic")
	}
	r := &Reader{path: path, buf: body[len(magic):]}
	if got := r.Str(); r.err != nil || got != kind {
		return bad("kind stamp %q, want %q", got, kind)
	}
	return r, nil
}
