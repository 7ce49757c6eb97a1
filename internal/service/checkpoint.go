package service

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"secpb/internal/engine"
	"secpb/internal/seal"
)

// Checkpoint manifest format: one seal record (magic, kind stamp, a
// fixed payload, FNV-64a seal), published by seal.WriteAtomic — the
// same record discipline as the harness cell cache. A manifest is tiny
// on purpose: the durable session state is the append-only segment log,
// and the manifest just seals a *cursor* into it (byte offset, segment
// count, log hash chain, engine state digest). Resume replays the log
// prefix the manifest names and refuses to proceed unless every seal,
// chain, and digest agrees — there is no partial restore.
const (
	ckptMagic = "SPBK"
	ckptFile  = "ckpt.spbk"
	logFile   = "trace.spb2"
	resFile   = "result.json"
)

// ckptKind stamps manifests with the service layout version and the
// engine results version: either changing makes old checkpoints
// unreadable (typed refusal, then quarantine), never silently
// misinterpreted. v2 folds with the standard FNV-64a basis and writes
// u64-length strings; a v1 session directory is refused.
const ckptKind = "session-ckpt-v2/" + engine.ResultsVersion

// Session lifecycle states persisted in the manifest.
const (
	ckptStateActive    = 1 // accepting segments
	ckptStateFinalized = 2 // result.json sealed; log closed
)

// manifest is a session's sealed durable cursor.
type manifest struct {
	Spec         Spec
	State        uint64 // ckptStateActive | ckptStateFinalized
	Segs         uint64 // segments durably applied
	Ops          uint64 // operations durably applied
	LogBytes     uint64 // durable byte length of the segment log (incl. header)
	Chain        uint64 // FNV-64a chain over log bytes [SPB2HeaderLen, LogBytes)
	Digest       uint64 // stateDigest of the engine after Segs segments
	ResultDigest uint64 // FNV-64a of result.json (finalized manifests only)
}

func (m *manifest) encode() []byte {
	var w seal.Writer
	w.Str(m.Spec.Name)
	w.Str(m.Spec.Scheme)
	w.Str(m.Spec.Bench)
	w.U64(m.Spec.Seed)
	w.I64(int64(m.Spec.Entries))
	w.U64(m.State)
	w.U64(m.Segs)
	w.U64(m.Ops)
	w.U64(m.LogBytes)
	w.U64(m.Chain)
	w.U64(m.Digest)
	w.U64(m.ResultDigest)
	return seal.Seal(ckptMagic, ckptKind, w.Bytes())
}

// decodeManifest verifies the seal, magic, and kind stamp (seal.Open)
// before trusting a single payload byte.
func decodeManifest(path string, raw []byte) (*manifest, error) {
	r, err := seal.Open(path, raw, ckptMagic, ckptKind)
	if err != nil {
		return nil, err
	}
	var m manifest
	m.Spec.Name = r.Str()
	m.Spec.Scheme = r.Str()
	m.Spec.Bench = r.Str()
	m.Spec.Seed = r.U64()
	m.Spec.Entries = int(r.I64())
	m.State = r.U64()
	m.Segs = r.U64()
	m.Ops = r.U64()
	m.LogBytes = r.U64()
	m.Chain = r.U64()
	m.Digest = r.U64()
	m.ResultDigest = r.U64()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if m.State != ckptStateActive && m.State != ckptStateFinalized {
		return nil, &seal.CorruptError{Path: path, Detail: fmt.Sprintf("unknown session state %d", m.State)}
	}
	return &m, nil
}

// writeManifest atomically replaces the session's manifest: a kill at
// any instant leaves either the previous sealed manifest or the new
// one, never a torn mix. It returns the manifest's size.
func writeManifest(dir string, m *manifest) (int, error) {
	enc := m.encode()
	return len(enc), seal.WriteAtomic(filepath.Join(dir, ckptFile), func(w io.Writer) error {
		_, err := w.Write(enc)
		return err
	})
}

// loadManifest reads and verifies a session's manifest.
func loadManifest(dir string) (*manifest, error) {
	path := filepath.Join(dir, ckptFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, &seal.CorruptError{Path: path, Detail: "missing manifest"}
		}
		return nil, err
	}
	return decodeManifest(path, raw)
}
