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
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"sync"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/runner"
	"secpb/internal/seal"
)

// cacheMagic opens every record file.
const cacheMagic = "SPBC"

// DiskStoreStats counts one store's activity.
type DiskStoreStats struct {
	Hits    uint64 // records served
	Misses  uint64 // absent records
	Corrupt uint64 // records rejected (checksum/version/decode)
	Saves   uint64 // records written
}

// diskStore is the shared record machinery: one seal record per key
// under dir, published by seal.WriteAtomic, so a crashed or concurrent
// writer can never expose a half-written record (it would fail the
// seal anyway and be recomputed).
type diskStore[V any] struct {
	dir  string
	kind string // format discriminator + engine.ResultsVersion
	enc  func(w *seal.Writer, v *V)
	dec  func(r *seal.Reader, v *V)
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

// load reads and validates one record, returning a *seal.CorruptError
// for anything structurally wrong with an existing file.
func (s *diskStore[V]) load(key CellKey) (V, error) {
	var v V
	path := s.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return v, err
	}
	r, err := seal.Open(path, raw, cacheMagic, s.kind)
	if err != nil {
		return v, err
	}
	s.dec(r, &v)
	return v, r.Done()
}

// Save implements runner.MemoStore. Failures are silent: the cache is
// an accelerator, and a value that fails to persist simply gets
// recomputed next run.
func (s *diskStore[V]) Save(key CellKey, v V) {
	if s.skip != nil && s.skip(&v) {
		return
	}
	var w seal.Writer
	s.enc(&w, &v)
	rec := seal.Seal(cacheMagic, s.kind, w.Bytes())
	if seal.WriteAtomic(s.path(key), func(f io.Writer) error {
		_, err := f.Write(rec)
		return err
	}) != nil {
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
func encodeResult(w *seal.Writer, r *engine.Result) {
	w.Str(r.Benchmark)
	w.I64(int64(r.Scheme))
	w.U64(r.Cycles)
	w.U64(r.Instructions)
	w.U64(r.Loads)
	w.U64(r.Stores)
	w.F64(r.PPTI)
	w.F64(r.NWPE)
	w.F64(r.IPC)
	w.U64(r.EntriesAllocated)
	w.I64(int64(r.PeakOccupancy))
	w.U64(r.BMTRootUpdates)
	w.U64(r.EarlyBMTWalks)
	w.U64(r.PBServedLoads)
	w.U64(r.Backpressure)
	w.U64(r.SBStall)
	w.U64(r.LoadStall)
	w.F64(r.GapMean)
	w.U64(r.GapP99)
	w.U64(r.PMReads)
	w.U64(r.PMWrites)
	w.F64(r.L1Hit)
	w.F64(r.LLCHit)
	w.U64(r.Reencryptions)
}

func decodeResult(rd *seal.Reader, r *engine.Result) {
	r.Benchmark = rd.Str()
	r.Scheme = config.Scheme(rd.I64())
	r.Cycles = rd.U64()
	r.Instructions = rd.U64()
	r.Loads = rd.U64()
	r.Stores = rd.U64()
	r.PPTI = rd.F64()
	r.NWPE = rd.F64()
	r.IPC = rd.F64()
	r.EntriesAllocated = rd.U64()
	r.PeakOccupancy = int(rd.I64())
	r.BMTRootUpdates = rd.U64()
	r.EarlyBMTWalks = rd.U64()
	r.PBServedLoads = rd.U64()
	r.Backpressure = rd.U64()
	r.SBStall = rd.U64()
	r.LoadStall = rd.U64()
	r.GapMean = rd.F64()
	r.GapP99 = rd.U64()
	r.PMReads = rd.U64()
	r.PMWrites = rd.U64()
	r.L1Hit = rd.F64()
	r.LLCHit = rd.F64()
	r.Reencryptions = rd.U64()
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

func encodeBatteryCell(w *seal.Writer, c *BatteryCell) {
	w.Str(c.Scheme)
	w.I64(int64(c.Cores))
	w.F64(c.WorstCaseJ)
	w.F64(c.MeasuredJ)
	w.I64(int64(c.PeakEntries))
	w.F64(c.SuperCapMM3)
	w.F64(c.LiThinMM3)
	w.F64(c.AggIPC)
	w.U64(c.Migrations)
	w.U64(c.ReadFlushes)
}

func decodeBatteryCell(rd *seal.Reader, c *BatteryCell) {
	c.Scheme = rd.Str()
	c.Cores = int(rd.I64())
	c.WorstCaseJ = rd.F64()
	c.MeasuredJ = rd.F64()
	c.PeakEntries = int(rd.I64())
	c.SuperCapMM3 = rd.F64()
	c.LiThinMM3 = rd.F64()
	c.AggIPC = rd.F64()
	c.Migrations = rd.U64()
	c.ReadFlushes = rd.U64()
}
