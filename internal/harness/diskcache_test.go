package harness

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/seal"
	"secpb/internal/workload"
)

// cacheFixture returns a cell store with one persisted result and the
// inputs that key it.
func cacheFixture(t *testing.T) (*DiskCellStore, CellKey, engine.Result) {
	t.Helper()
	store, err := NewDiskCellStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default().WithScheme(config.SchemeCOBCM)
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunBenchmark(cfg, prof, 2000)
	if err != nil {
		t.Fatal(err)
	}
	key := cellKey(cfg, prof, 2000)
	store.Save(key, res)
	return store, key, res
}

// recordPath returns the single record file the fixture wrote.
func recordPath(t *testing.T, store *DiskCellStore, key CellKey) string {
	t.Helper()
	p := store.path(key)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("expected record at %s: %v", p, err)
	}
	return p
}

func TestDiskCellStoreRoundTrip(t *testing.T) {
	store, key, want := cacheFixture(t)
	got, ok := store.Load(key)
	if !ok {
		t.Fatal("negative control failed: intact record did not load")
	}
	if got != want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if s := store.Stats(); s.Hits != 1 || s.Corrupt != 0 || s.Saves != 1 {
		t.Fatalf("unexpected stats %+v", s)
	}
}

func TestDiskCellStoreRejectsTruncatedRecord(t *testing.T) {
	store, key, _ := cacheFixture(t)
	p := recordPath(t, store, key)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(key); ok {
		t.Fatal("truncated record loaded")
	}
	var corrupt *seal.CorruptError
	if _, err := store.load(key); !errors.As(err, &corrupt) {
		t.Fatalf("want *seal.CorruptError for truncated record, got %v", err)
	}
	if s := store.Stats(); s.Corrupt != 1 {
		t.Fatalf("corrupt record not counted: %+v", s)
	}
}

func TestDiskCellStoreRejectsFlippedChecksumByte(t *testing.T) {
	store, key, _ := cacheFixture(t)
	p := recordPath(t, store, key)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: the FNV seal no longer matches.
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(key); ok {
		t.Fatal("bit-flipped record loaded")
	}
	var corrupt *seal.CorruptError
	if _, err := store.load(key); !errors.As(err, &corrupt) {
		t.Fatalf("want *seal.CorruptError for flipped byte, got %v", err)
	}
}

func TestDiskCellStoreRejectsStaleVersionStamp(t *testing.T) {
	store, key, res := cacheFixture(t)
	p := recordPath(t, store, key)
	// Re-save the same value under a stale stamp (a record written by
	// an older simulator): a correctly sealed record must still be
	// rejected on the version check alone.
	stale := &DiskCellStore{diskStore[engine.Result]{
		dir: store.dir, kind: "cell/secpb-results-v0",
		enc: encodeResult, dec: decodeResult,
	}}
	stale.Save(key, res)
	if _, err := os.Stat(p); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(key); ok {
		t.Fatal("stale-version record loaded")
	}
	var corrupt *seal.CorruptError
	if _, err := store.load(key); !errors.As(err, &corrupt) {
		t.Fatalf("want *seal.CorruptError for stale version, got %v", err)
	}
}

// TestMemoFallsBackToSimulationOnCorruptRecord is the end-to-end
// contract: a memo backed by a damaged store recomputes the cell,
// returns the correct value, and rewrites the record.
func TestMemoFallsBackToSimulationOnCorruptRecord(t *testing.T) {
	store, key, want := cacheFixture(t)
	p := recordPath(t, store, key)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01 // break the seal itself
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	memo := NewCellMemo()
	memo.SetStore(store)
	simulated := false
	got, hit, err := memo.Do(key, func() (engine.Result, error) {
		simulated = true
		return want, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit || !simulated {
		t.Fatalf("corrupt record served as a hit (hit=%v simulated=%v)", hit, simulated)
	}
	if got != want {
		t.Fatalf("fallback result mismatch: %+v", got)
	}
	// The recomputed value must have been rewritten, and be loadable.
	if reread, ok := store.Load(key); !ok || reread != want {
		t.Fatalf("record not rewritten after fallback (ok=%v)", ok)
	}
	if hits, saves := memo.StoreStats(); hits != 0 || saves != 1 {
		t.Fatalf("unexpected memo store stats hits=%d saves=%d", hits, saves)
	}
}

// TestDiskCellStoreSkipsIntegrityViolations: a result carrying an
// integrity error must never be persisted.
func TestDiskCellStoreSkipsIntegrityViolations(t *testing.T) {
	store, err := NewDiskCellStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var key CellKey
	key[0] = 0xab
	store.Save(key, engine.Result{IntegrityErr: errors.New("tampered")})
	if _, statErr := os.Stat(store.path(key)); !os.IsNotExist(statErr) {
		t.Fatal("integrity-violated result was persisted")
	}
	if _, ok := store.Load(key); ok {
		t.Fatal("integrity-violated result loaded")
	}
}

// TestDiskBatteryStoreRoundTrip covers the second record codec.
func TestDiskBatteryStoreRoundTrip(t *testing.T) {
	store, err := NewDiskBatteryStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := BatteryCell{
		Scheme: "COBCM", Cores: 8, WorstCaseJ: 1.5, MeasuredJ: 0.25,
		PeakEntries: 96, SuperCapMM3: 12.5, LiThinMM3: 3.25,
		AggIPC: 4.75, Migrations: 17, ReadFlushes: 5,
	}
	var key CellKey
	key[0] = 0xcd
	store.Save(key, want)
	got, ok := store.Load(key)
	if !ok || got != want {
		t.Fatalf("battery round trip mismatch (ok=%v): %+v", ok, got)
	}
	// Cell and battery records share a directory but not a stamp: a
	// cell store must reject a battery record outright.
	cellStore := &DiskCellStore{diskStore[engine.Result]{
		dir: store.dir, kind: "cell/" + engine.ResultsVersion,
		enc: encodeResult, dec: decodeResult,
	}}
	if _, ok := cellStore.Load(key); ok {
		t.Fatal("cell store loaded a battery record")
	}
}

// TestDiskStoreFilenameIsContentKey pins the on-disk naming: one
// record per key, named by the hex content key.
func TestDiskStoreFilenameIsContentKey(t *testing.T) {
	store, key, _ := cacheFixture(t)
	p := recordPath(t, store, key)
	if filepath.Dir(p) != store.dir {
		t.Fatalf("record outside store dir: %s", p)
	}
	ents, err := os.ReadDir(store.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("want exactly one record file, got %d", len(ents))
	}
}
