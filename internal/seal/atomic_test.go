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

func (fs *fakeFS) SyncDir(string) error { return fs.step("syncdir") }

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
		{"syncdir", pathErr("sync", syscall.EIO), newBytes},
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
			if got, want := strings.Join(fs.steps, " → "), "create → write → fsync → close → rename → syncdir"; got != want {
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
