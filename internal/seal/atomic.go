package seal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteAtomic publishes the bytes write produces as the file at path.
// It writes a temp file in the same directory, fsyncs and closes it,
// renames it over path and fsyncs the directory, so a crash at any
// instant leaves either the previous file or the complete new one
// under path, never a torn mix; once WriteAtomic returns nil the new
// file survives power loss. On any failure the temp file is removed
// and the error is returned.
func WriteAtomic(path string, write func(io.Writer) error) error {
	return writeAtomic(osFS{}, path, write)
}

// SyncDir fsyncs a directory so that entries created or renamed in it
// are durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func writeAtomic(fsys fileSystem, path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			fsys.Remove(f.Name()) // already gone if only the directory fsync failed
		}
	}()
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	// Sync before the rename: a rename over unsynced data can surface
	// after a power loss as a complete-looking but empty file.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(f.Name(), path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// Move renames oldpath (a file or a directory) to newpath, then fsyncs
// newpath's parent directory and, when it differs, oldpath's, so that
// once Move returns nil the move survives power loss: the entry neither
// reappears under its old name nor goes missing under its new one. On
// failure it returns a *MoveError.
func Move(oldpath, newpath string) error {
	return move(osFS{}, oldpath, newpath)
}

// MoveError reports a failed Move. Moved tells whether the rename took
// effect: when only a directory fsync failed, the entry is already under
// the new name, but the move may not survive a power loss. When the
// rename itself failed, nothing moved.
type MoveError struct {
	Old, New string
	Moved    bool
	Err      error
}

func (e *MoveError) Error() string {
	if e.Moved {
		return fmt.Sprintf("seal: moved %s to %s but could not make it durable: %v", e.Old, e.New, e.Err)
	}
	return fmt.Sprintf("seal: move %s to %s: %v", e.Old, e.New, e.Err)
}

func (e *MoveError) Unwrap() error { return e.Err }

func move(fsys fileSystem, oldpath, newpath string) error {
	if err := fsys.Rename(oldpath, newpath); err != nil {
		return &MoveError{Old: oldpath, New: newpath, Err: err}
	}
	dirs := []string{filepath.Dir(newpath)}
	if d := filepath.Dir(oldpath); d != dirs[0] {
		dirs = append(dirs, d)
	}
	for _, dir := range dirs {
		if err := fsys.SyncDir(dir); err != nil {
			return &MoveError{Old: oldpath, New: newpath, Moved: true, Err: err}
		}
	}
	return nil
}

// fileSystem is the part of the OS WriteAtomic and Move use; tests
// substitute a fake that fails at each step.
type fileSystem interface {
	CreateTemp(dir, pattern string) (tempFile, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	SyncDir(dir string) error
}

type tempFile interface {
	io.Writer
	Name() string
	Sync() error
	Close() error
}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (tempFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) SyncDir(dir string) error             { return SyncDir(dir) }
