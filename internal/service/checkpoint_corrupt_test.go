package service

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"secpb/internal/engine"
	"secpb/internal/seal"
)

// Corruption suite, mirroring harness/diskcache_test.go at session
// scope: damage a sealed checkpoint every way a disk can and prove the
// server (a) refuses resume with a typed *seal.CorruptError, and
// (b) falls back to a clean session under the same name — never a
// partial restore.

// pristineDir builds one sealed session directory (a few segments
// streamed, graceful close) and returns the data dir.
func pristineDir(t *testing.T) string {
	t.Helper()
	spec := testSpec("victim")
	bodies := segBodies(t, genOps(t, spec, 1200), 256)
	dataDir := t.TempDir()
	sv, err := Open(Options{DataDir: dataDir, CkptEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	createSession(t, sv, spec)
	uploadAll(t, sv, spec.Name, bodies, 0)
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	return dataDir
}

// copyTree clones the pristine data dir so each corruption runs
// against fresh bytes.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		s, d := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyTree(t, s, d)
			continue
		}
		raw, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// expectQuarantine opens a server over dataDir and asserts the victim
// session was refused with a typed error and that its name is free for
// a clean session.
func expectQuarantine(t *testing.T, dataDir, label string) {
	t.Helper()
	sv, err := Open(Options{DataDir: dataDir})
	if err != nil {
		t.Fatalf("%s: server startup must survive one bad session: %v", label, err)
	}
	defer sv.Close()
	if _, ok := sv.Session("victim"); ok {
		t.Fatalf("%s: corrupt session resumed", label)
	}
	causes := sv.QuarantineCauses()
	if len(causes) != 1 {
		t.Fatalf("%s: %d quarantine reports, want 1", label, len(causes))
	}
	var cc *seal.CorruptError
	if !errors.As(causes[0], &cc) {
		t.Fatalf("%s: quarantine cause %T (%v), want *seal.CorruptError", label, causes[0], causes[0])
	}
	// Clean-session fallback: the name is immediately reusable.
	createSession(t, sv, testSpec("victim"))
	s, _ := sv.Session("victim")
	if st := s.Status(); st.DurableSegs != 0 || st.State != "active" {
		t.Fatalf("%s: fallback session not clean: %+v", label, st)
	}
}

// Every single-byte flip of the manifest must be caught — the FNV seal
// covers the whole record, so there is no byte an attacker or a dying
// disk can touch silently.
func TestCheckpointRejectsEveryFlippedByte(t *testing.T) {
	pristine := pristineDir(t)
	ckpt := filepath.Join(pristine, "sessions", "victim", ckptFile)
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		dataDir := t.TempDir()
		copyTree(t, pristine, dataDir)
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0xff
		target := filepath.Join(dataDir, "sessions", "victim", ckptFile)
		if err := os.WriteFile(target, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		expectQuarantine(t, dataDir, "flip byte "+itoa(i))
	}
}

// Every truncation length must be caught, down to the empty file.
func TestCheckpointRejectsEveryTruncation(t *testing.T) {
	pristine := pristineDir(t)
	ckpt := filepath.Join(pristine, "sessions", "victim", ckptFile)
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(raw); n++ {
		dataDir := t.TempDir()
		copyTree(t, pristine, dataDir)
		target := filepath.Join(dataDir, "sessions", "victim", ckptFile)
		if err := os.WriteFile(target, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		expectQuarantine(t, dataDir, "truncate to "+itoa(n))
	}
}

// A missing or v1 manifest, a tampered log body, and a log shorter than
// the sealed cursor are all typed refusals too.
func TestCheckpointRejectsDamagedLog(t *testing.T) {
	pristine := pristineDir(t)
	sessDir := filepath.Join(pristine, "sessions", "victim")
	logRaw, err := os.ReadFile(filepath.Join(sessDir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		do   func(t *testing.T, dir string)
	}{
		{"missing manifest", func(t *testing.T, dir string) {
			os.Remove(filepath.Join(dir, ckptFile))
		}},
		{"v1 manifest", func(t *testing.T, dir string) {
			// A correctly sealed manifest under the v1 kind stamp is
			// refused on the stamp alone, before its payload is read.
			path := filepath.Join(dir, ckptFile)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			payload := raw[len(ckptMagic)+8+len(ckptKind) : len(raw)-8]
			v1 := seal.Seal(ckptMagic, "session-ckpt-v1/"+engine.ResultsVersion, payload)
			if err := os.WriteFile(path, v1, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"log byte flipped", func(t *testing.T, dir string) {
			mut := append([]byte(nil), logRaw...)
			mut[len(mut)/2] ^= 0x01
			os.WriteFile(filepath.Join(dir, logFile), mut, 0o644)
		}},
		{"log header flipped", func(t *testing.T, dir string) {
			mut := append([]byte(nil), logRaw...)
			mut[0] ^= 0x01
			os.WriteFile(filepath.Join(dir, logFile), mut, 0o644)
		}},
		{"log truncated below cursor", func(t *testing.T, dir string) {
			os.Truncate(filepath.Join(dir, logFile), int64(len(logRaw)/2))
		}},
		{"log missing", func(t *testing.T, dir string) {
			os.Remove(filepath.Join(dir, logFile))
		}},
	}
	for _, tc := range cases {
		dataDir := t.TempDir()
		copyTree(t, pristine, dataDir)
		tc.do(t, filepath.Join(dataDir, "sessions", "victim"))
		expectQuarantine(t, dataDir, tc.name)
	}
}

// Finalized sessions get the same treatment: a tampered result
// artifact fails its sealed digest and the session is quarantined.
func TestCheckpointRejectsTamperedResult(t *testing.T) {
	spec := testSpec("victim")
	bodies := segBodies(t, genOps(t, spec, 900), 256)
	pristine := t.TempDir()
	sv, err := Open(Options{DataDir: pristine})
	if err != nil {
		t.Fatal(err)
	}
	createSession(t, sv, spec)
	uploadAll(t, sv, spec.Name, bodies, 0)
	finalize(t, sv, spec.Name)
	sv.Close()

	for _, tc := range []string{"flip", "remove"} {
		dataDir := t.TempDir()
		copyTree(t, pristine, dataDir)
		resPath := filepath.Join(dataDir, "sessions", "victim", resFile)
		if tc == "remove" {
			os.Remove(resPath)
		} else {
			raw, err := os.ReadFile(resPath)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/3] ^= 0x20
			os.WriteFile(resPath, raw, 0o644)
		}
		expectQuarantine(t, dataDir, "result "+tc)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
