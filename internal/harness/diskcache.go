// Persistent content-addressed cell cache: the on-disk second level
// behind CellMemo / BatteryMemo. A record is keyed by the same
// sha256(config|profile|ops) content key the in-memory memo uses, and
// carries a format/engine version stamp plus an FNV-64a seal over the
// whole record, so a warm -memodir run of the experiment grids replays
// results instead of simulating — and any record that is truncated,
// bit-flipped, or written by a different simulator version is rejected
// and transparently recomputed (then overwritten), never trusted.
package harness

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/runner"
)

// cacheMagic opens every record file.
const cacheMagic = "SPBC"

// CorruptCacheError reports a cache record that failed validation:
// bad magic, failed checksum, stale version stamp, or a payload that
// does not decode cleanly. It is typed (mirroring nvm's
// CorruptStateError discipline) so tests and tooling can distinguish
// "the cache is damaged" from an ordinary miss; the memo path treats
// both identically — fall back to simulation and rewrite.
type CorruptCacheError struct {
	Path   string
	Detail string
}

func (e *CorruptCacheError) Error() string {
	return fmt.Sprintf("harness: corrupt cache record %s: %s", e.Path, e.Detail)
}

// DiskStoreStats counts one store's activity.
type DiskStoreStats struct {
	Hits    uint64 // records served
	Misses  uint64 // absent records
	Corrupt uint64 // records rejected (checksum/version/decode)
	Saves   uint64 // records written
}

// recWriter serializes a record payload in fixed field order.
type recWriter struct{ buf []byte }

func (w *recWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *recWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *recWriter) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *recWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// recReader consumes a record payload; any over-read marks it bad.
type recReader struct {
	buf []byte
	pos int
	bad bool
}

func (r *recReader) u64() uint64 {
	if r.pos+8 > len(r.buf) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}
func (r *recReader) i64() int64   { return int64(r.u64()) }
func (r *recReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *recReader) str() string {
	n := r.u64()
	if r.bad || uint64(r.pos)+n > uint64(len(r.buf)) {
		r.bad = true
		return ""
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

// done reports whether the payload decoded cleanly and completely:
// no over-read and no trailing bytes (a short record that still seals
// correctly must not silently zero-fill fields).
func (r *recReader) done() bool { return !r.bad && r.pos == len(r.buf) }

// diskStore is the shared record machinery: one file per key under
// dir, record = magic | kind+version stamp | payload | FNV-64a seal.
// Writes go through a temp file and an atomic rename, so a crashed or
// concurrent writer can never expose a half-written record (it would
// fail the seal anyway and be recomputed).
type diskStore[V any] struct {
	dir  string
	kind string // format discriminator + engine.ResultsVersion
	enc  func(w *recWriter, v *V)
	dec  func(r *recReader, v *V)
	skip func(v *V) bool // veto persisting this value (may be nil)

	mu    sync.Mutex
	stats DiskStoreStats
}

func (s *diskStore[V]) path(key CellKey) string {
	return filepath.Join(s.dir, hex.EncodeToString(key[:])+".spbc")
}

// Load implements runner.MemoStore: any unusable record is a miss.
func (s *diskStore[V]) Load(key CellKey) (V, bool) {
	v, err := s.load(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.stats.Hits++
		return v, true
	case os.IsNotExist(err):
		s.stats.Misses++
	default:
		s.stats.Corrupt++
	}
	var zero V
	return zero, false
}

// load reads and validates one record, returning a *CorruptCacheError
// for anything structurally wrong with an existing file.
func (s *diskStore[V]) load(key CellKey) (V, error) {
	var v V
	path := s.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return v, err
	}
	if len(raw) < len(cacheMagic)+8 {
		return v, &CorruptCacheError{Path: path, Detail: "truncated record"}
	}
	body, sealed := raw[:len(raw)-8], binary.LittleEndian.Uint64(raw[len(raw)-8:])
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != sealed {
		return v, &CorruptCacheError{Path: path, Detail: "checksum mismatch"}
	}
	if string(body[:len(cacheMagic)]) != cacheMagic {
		return v, &CorruptCacheError{Path: path, Detail: "bad magic"}
	}
	r := &recReader{buf: body[len(cacheMagic):]}
	if kind := r.str(); kind != s.kind {
		return v, &CorruptCacheError{Path: path,
			Detail: fmt.Sprintf("version stamp %q, want %q", kind, s.kind)}
	}
	s.dec(r, &v)
	if !r.done() {
		return v, &CorruptCacheError{Path: path, Detail: "payload does not decode"}
	}
	return v, nil
}

// Save implements runner.MemoStore. Failures are silent: the cache is
// an accelerator, and a value that fails to persist simply gets
// recomputed next run.
func (s *diskStore[V]) Save(key CellKey, v V) {
	if s.skip != nil && s.skip(&v) {
		return
	}
	w := &recWriter{buf: make([]byte, 0, 512)}
	w.buf = append(w.buf, cacheMagic...)
	w.str(s.kind)
	s.enc(w, &v)
	h := fnv.New64a()
	h.Write(w.buf)
	w.u64(h.Sum64())

	tmp, err := os.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return
	}
	// Sync before the rename: a rename over unsynced data can surface
	// after a power loss as a complete-looking but empty record.
	_, werr := tmp.Write(w.buf)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if os.Rename(tmp.Name(), s.path(key)) != nil {
		os.Remove(tmp.Name())
		return
	}
	s.mu.Lock()
	s.stats.Saves++
	s.mu.Unlock()
}

// Stats returns the store's cumulative activity.
func (s *diskStore[V]) Stats() DiskStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// DiskCellStore persists engine.Result cells; attach with
// CellMemo.SetStore. Results carrying an integrity error are never
// persisted — a violated run must always resimulate.
type DiskCellStore struct {
	diskStore[engine.Result]
}

var _ runner.MemoStore[CellKey, engine.Result] = (*DiskCellStore)(nil)

// NewDiskCellStore opens (creating if needed) a cell cache directory.
func NewDiskCellStore(dir string) (*DiskCellStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DiskCellStore{diskStore[engine.Result]{
		dir:  dir,
		kind: "cell/" + engine.ResultsVersion,
		enc:  encodeResult,
		dec:  decodeResult,
		skip: func(r *engine.Result) bool { return r.IntegrityErr != nil },
	}}, nil
}

// encodeResult/decodeResult must walk the exact same field order; the
// version stamp (via engine.ResultsVersion) changes whenever Result
// does, so the pair never reads a record written under another layout.
func encodeResult(w *recWriter, r *engine.Result) {
	w.str(r.Benchmark)
	w.i64(int64(r.Scheme))
	w.u64(r.Cycles)
	w.u64(r.Instructions)
	w.u64(r.Loads)
	w.u64(r.Stores)
	w.f64(r.PPTI)
	w.f64(r.NWPE)
	w.f64(r.IPC)
	w.u64(r.EntriesAllocated)
	w.i64(int64(r.PeakOccupancy))
	w.u64(r.BMTRootUpdates)
	w.u64(r.EarlyBMTWalks)
	w.u64(r.PBServedLoads)
	w.u64(r.Backpressure)
	w.u64(r.SBStall)
	w.u64(r.LoadStall)
	w.f64(r.GapMean)
	w.u64(r.GapP99)
	w.u64(r.PMReads)
	w.u64(r.PMWrites)
	w.f64(r.L1Hit)
	w.f64(r.LLCHit)
	w.u64(r.Reencryptions)
}

func decodeResult(rd *recReader, r *engine.Result) {
	r.Benchmark = rd.str()
	r.Scheme = config.Scheme(rd.i64())
	r.Cycles = rd.u64()
	r.Instructions = rd.u64()
	r.Loads = rd.u64()
	r.Stores = rd.u64()
	r.PPTI = rd.f64()
	r.NWPE = rd.f64()
	r.IPC = rd.f64()
	r.EntriesAllocated = rd.u64()
	r.PeakOccupancy = int(rd.i64())
	r.BMTRootUpdates = rd.u64()
	r.EarlyBMTWalks = rd.u64()
	r.PBServedLoads = rd.u64()
	r.Backpressure = rd.u64()
	r.SBStall = rd.u64()
	r.LoadStall = rd.u64()
	r.GapMean = rd.f64()
	r.GapP99 = rd.u64()
	r.PMReads = rd.u64()
	r.PMWrites = rd.u64()
	r.L1Hit = rd.f64()
	r.LLCHit = rd.f64()
	r.Reencryptions = rd.u64()
}

// DiskBatteryStore persists multicore BatteryCell cells; attach with
// BatteryMemo.SetStore.
type DiskBatteryStore struct {
	diskStore[BatteryCell]
}

var _ runner.MemoStore[CellKey, BatteryCell] = (*DiskBatteryStore)(nil)

// NewDiskBatteryStore opens (creating if needed) a battery-cell cache
// directory.
func NewDiskBatteryStore(dir string) (*DiskBatteryStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DiskBatteryStore{diskStore[BatteryCell]{
		dir:  dir,
		kind: "battery/" + engine.ResultsVersion,
		enc:  encodeBatteryCell,
		dec:  decodeBatteryCell,
	}}, nil
}

func encodeBatteryCell(w *recWriter, c *BatteryCell) {
	w.str(c.Scheme)
	w.i64(int64(c.Cores))
	w.f64(c.WorstCaseJ)
	w.f64(c.MeasuredJ)
	w.i64(int64(c.PeakEntries))
	w.f64(c.SuperCapMM3)
	w.f64(c.LiThinMM3)
	w.f64(c.AggIPC)
	w.u64(c.Migrations)
	w.u64(c.ReadFlushes)
}

func decodeBatteryCell(rd *recReader, c *BatteryCell) {
	c.Scheme = rd.str()
	c.Cores = int(rd.i64())
	c.WorstCaseJ = rd.f64()
	c.MeasuredJ = rd.f64()
	c.PeakEntries = int(rd.i64())
	c.SuperCapMM3 = rd.f64()
	c.LiThinMM3 = rd.f64()
	c.AggIPC = rd.f64()
	c.Migrations = rd.u64()
	c.ReadFlushes = rd.u64()
}
