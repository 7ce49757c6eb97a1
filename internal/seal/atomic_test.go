package seal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// fakeFS is an in-memory directory that logs every step WriteAtomic
// takes and fails the one named by failAt.
type fakeFS struct {
	files  map[string][]byte
	failAt string
	err    error
	steps  []string
	temps  int
}

func (fs *fakeFS) step(name string) error {
	fs.steps = append(fs.steps, name)
	if name == fs.failAt {
		return fs.err
	}
	return nil
}

func (fs *fakeFS) CreateTemp(dir, pattern string) (tempFile, error) {
	if err := fs.step("create"); err != nil {
		return nil, err
	}
	fs.temps++
	name := filepath.Join(dir, strings.Replace(pattern, "*", fmt.Sprint(fs.temps), 1))
	fs.files[name] = nil
	return &fakeFile{fs: fs, name: name}, nil
}

func (fs *fakeFS) Rename(oldpath, newpath string) error {
	if err := fs.step("rename"); err != nil {
		return err
	}
	fs.files[newpath] = fs.files[oldpath]
	delete(fs.files, oldpath)
	return nil
}

func (fs *fakeFS) Remove(name string) error {
	if _, ok := fs.files[name]; !ok {
		return os.ErrNotExist
	}
	delete(fs.files, name)
	return nil
}

func (fs *fakeFS) SyncDir(dir string) error { return fs.step("syncdir " + dir) }

type fakeFile struct {
	fs   *fakeFS
	name string
}

func (f *fakeFile) Name() string { return f.name }
func (f *fakeFile) Sync() error  { return f.fs.step("fsync") }
func (f *fakeFile) Close() error { return f.fs.step("close") }

func (f *fakeFile) Write(p []byte) (int, error) {
	switch f.fs.failAt {
	case "short write":
		f.fs.steps = append(f.fs.steps, "write")
		f.fs.files[f.name] = append(f.fs.files[f.name], p[:len(p)/2]...)
		return len(p) / 2, f.fs.err
	case "write":
		f.fs.steps = append(f.fs.steps, "write")
		return 0, f.fs.err
	}
	f.fs.steps = append(f.fs.steps, "write")
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	return len(p), nil
}

// Every step of WriteAtomic can fail. Whichever does, the injected
// error comes back, no temp file is left, and the destination holds
// either its old bytes or — only when nothing but the directory fsync
// failed — the complete new ones. It is never partial.
func TestWriteAtomicFaults(t *testing.T) {
	const path = "/data/ckpt.spbk"
	oldBytes := []byte("old sealed record")
	newBytes := bytes.Repeat([]byte("new sealed record "), 64)
	pathErr := func(op string, errno syscall.Errno) error {
		return &os.PathError{Op: op, Path: path, Err: errno}
	}
	cases := []struct {
		failAt string
		err    error
		want   []byte
	}{
		{"create", pathErr("open", syscall.EACCES), oldBytes},
		{"short write", io.ErrShortWrite, oldBytes},
		{"write", pathErr("write", syscall.ENOSPC), oldBytes},
		{"fsync", pathErr("sync", syscall.EIO), oldBytes},
		{"close", pathErr("close", syscall.EIO), oldBytes},
		{"rename", &os.LinkError{Op: "rename", Old: path + ".tmp-1", New: path, Err: syscall.EXDEV}, oldBytes},
		{"syncdir /data", pathErr("sync", syscall.EIO), newBytes},
		{"", nil, newBytes},
	}
	for _, tc := range cases {
		fs := &fakeFS{
			files:  map[string][]byte{path: oldBytes},
			failAt: tc.failAt,
			err:    tc.err,
		}
		err := writeAtomic(fs, path, func(w io.Writer) error {
			_, err := w.Write(newBytes)
			return err
		})
		if tc.err == nil {
			if err != nil {
				t.Fatalf("no fault: %v", err)
			}
			// The order the durability argument rests on: data synced
			// before the rename publishes it, the rename synced before
			// WriteAtomic reports success.
			if got, want := strings.Join(fs.steps, " → "), "create → write → fsync → close → rename → syncdir /data"; got != want {
				t.Fatalf("step order %s, want %s", got, want)
			}
		} else if !errors.Is(err, tc.err) {
			t.Fatalf("%s: got error %v, want the injected %v", tc.failAt, err, tc.err)
		}
		for name := range fs.files {
			if strings.Contains(name, ".tmp-") {
				t.Fatalf("%s: temp file %s left behind", tc.failAt, name)
			}
		}
		if got := fs.files[path]; !bytes.Equal(got, tc.want) {
			t.Fatalf("%s: %s holds %d bytes %.20q, want %d bytes %.20q",
				tc.failAt, path, len(got), got, len(tc.want), tc.want)
		}
	}
}

// On the real file system: a write callback's error is returned, the
// old file survives and the directory holds no temp file; a successful
// write replaces the file.
func TestWriteAtomicOS(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "result.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encoder failed")
	err := WriteAtomic(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the callback's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("failed write changed the file to %q", got)
	}
	if err := WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("file holds %q, want %q", got, "new")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only result.json", len(entries))
	}
}

// Every step of Move can fail: the rename, then the fsync of each parent
// directory. Whichever does, the injected error comes back inside a
// *MoveError whose Moved flag says where the entry is: still under the
// old name after a failed rename, under the new one after a failed
// fsync.
func TestMoveFaults(t *testing.T) {
	const (
		oldpath = "/data/sessions/s1"
		newpath = "/data/quarantine/s1.7"
	)
	injected := &os.PathError{Op: "sync", Path: "/data", Err: syscall.EIO}
	cases := []struct {
		failAt string
		moved  bool
	}{
		{"rename", false},
		{"syncdir /data/quarantine", true},
		{"syncdir /data/sessions", true},
		{"", true},
	}
	for _, tc := range cases {
		fs := &fakeFS{files: map[string][]byte{oldpath: []byte("session")}, failAt: tc.failAt, err: injected}
		err := move(fs, oldpath, newpath)
		if tc.failAt == "" {
			if err != nil {
				t.Fatalf("no fault: %v", err)
			}
			// The destination's directory first, so the entry is never
			// durably nowhere.
			if got, want := strings.Join(fs.steps, " → "), "rename → syncdir /data/quarantine → syncdir /data/sessions"; got != want {
				t.Fatalf("step order %s, want %s", got, want)
			}
		} else {
			var me *MoveError
			if !errors.As(err, &me) || !errors.Is(err, injected) {
				t.Fatalf("%s: got %v, want a *MoveError wrapping the injected error", tc.failAt, err)
			}
			if me.Moved != tc.moved || me.Old != oldpath || me.New != newpath {
				t.Fatalf("%s: %+v, want Moved %v", tc.failAt, me, tc.moved)
			}
		}
		_, atOld := fs.files[oldpath]
		_, atNew := fs.files[newpath]
		if atOld == tc.moved || atNew != tc.moved {
			t.Fatalf("%s: entry at old path %v, new path %v; want moved %v", tc.failAt, atOld, atNew, tc.moved)
		}
	}
	// Within one directory there is one parent to sync.
	fs := &fakeFS{files: map[string][]byte{"/data/a": nil}}
	if err := move(fs, "/data/a", "/data/b"); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(fs.steps, " → "), "rename → syncdir /data"; got != want {
		t.Fatalf("same-directory move: step order %s, want %s", got, want)
	}
}

// On the real file system: Move carries a directory and its contents
// across parents, and a missing source is a *MoveError that moved
// nothing.
func TestMoveOS(t *testing.T) {
	root := t.TempDir()
	src := filepath.Join(root, "sessions", "s1")
	dst := filepath.Join(root, "quarantine", "s1.1")
	if err := os.MkdirAll(src, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "ckpt.spbk"), []byte("ckpt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Move(src, dst); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dst, "ckpt.spbk")); err != nil || string(got) != "ckpt" {
		t.Fatalf("moved file holds %q, %v", got, err)
	}
	if _, err := os.Stat(src); !os.IsNotExist(err) {
		t.Fatalf("source still present after Move: %v", err)
	}
	err := Move(src, dst+".again")
	var me *MoveError
	if !errors.As(err, &me) || me.Moved || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("moving a missing source: got %v, want an unmoved *MoveError wrapping ErrNotExist", err)
	}
}
