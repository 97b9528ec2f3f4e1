// Package vfs is the filesystem abstraction under Treaty's trusted
// storage stack (WAL, SSTables, MANIFEST, Clog, mirror, counter replica
// state).
// Every durable byte the engine writes goes through an FS, which lets
// tests substitute fault-injecting and crash-simulating backends:
//
//   - OS is a passthrough to the real filesystem;
//   - MemFS is an in-memory filesystem that distinguishes volatile from
//     durable state (power-cut simulation for crash-point testing);
//   - FaultFS wraps any FS and injects scripted or probabilistic write
//     errors, short (torn) writes, fsync failures with fsyncgate
//     semantics, ENOSPC, read-side bit rot, and disk slowness.
//
// The durability model is deliberately strict: file contents become
// crash-durable only on a successful File.Sync, and namespace operations
// (create, rename, remove) become crash-durable only on a successful
// SyncDir of the parent directory. The storage layer is written against
// this model; MemFS enforces it, the real OS is merely no stricter.
package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
)

// File is one open file handle.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.Closer
	// Name returns the path the file was opened with.
	Name() string
	// Stat returns file metadata.
	Stat() (os.FileInfo, error)
	// Sync flushes written content to stable storage. After a failed
	// Sync the handle's unsynced tail must be assumed lost (fsyncgate
	// semantics); callers fail-stop rather than retry.
	Sync() error
	// Truncate changes the file's size.
	Truncate(size int64) error
}

// FS is the filesystem interface the storage stack writes through.
type FS interface {
	// Create creates a new file exclusively (O_CREATE|O_WRONLY|O_EXCL).
	Create(name string) (File, error)
	// Open opens a file read-only.
	Open(name string) (File, error)
	// OpenFile is the generalized open.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// Stat returns metadata for a path.
	Stat(name string) (os.FileInfo, error)
	// Rename atomically renames a file (durable after SyncDir).
	Rename(oldname, newname string) error
	// Remove unlinks a file (durable after SyncDir).
	Remove(name string) error
	// Truncate resizes a file by path.
	Truncate(name string, size int64) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists a directory.
	ReadDir(name string) ([]os.DirEntry, error)
	// SyncDir makes a directory's namespace operations (creates,
	// renames, removes) durable.
	SyncDir(dir string) error
}

// ErrNoSpace is the injected out-of-disk-space error.
var ErrNoSpace = errors.New("vfs: no space left on device (injected)")

// SyncPath force-syncs an existing file by path: open, Sync, Close. It is
// the durability step after an FS.Truncate — under the strict model a
// truncation is only crash-durable once the file has been fsynced, and a
// recovery path that truncates a torn log tail must force the truncation
// before new appends land, or a second crash can resurrect the dropped
// bytes underneath fresh frames.
func SyncPath(fs FS, name string) error {
	f, err := fs.OpenFile(name, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Default is the process-wide passthrough filesystem.
var Default FS = OS{}

// OS is the passthrough backend over the real filesystem.
type OS struct{}

// Create implements FS.
func (OS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
}

// Open implements FS.
func (OS) Open(name string) (File, error) { return os.Open(name) }

// OpenFile implements FS.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Stat implements FS.
func (OS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

// Rename implements FS.
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// ReadDir implements FS.
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// SyncDir implements FS: fsync the directory so renames/creates survive
// a crash.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
