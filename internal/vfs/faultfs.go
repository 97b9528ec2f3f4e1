package vfs

import (
	"errors"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"treaty/internal/obs"
)

// ErrInjected is the base error returned by injected write/sync faults.
var ErrInjected = errors.New("vfs: injected I/O error")

// FaultFS wraps another FS and injects disk faults: scripted ("fail the
// next N") write/sync errors, probabilistic short (torn) writes, ENOSPC
// via a write budget, read-side bit rot, and per-op delay.
//
// Injected sync failures follow fsyncgate semantics: the wrapped file is
// truncated back to its last successfully-synced size before the error
// is returned, so the unsynced tail is lost exactly as a kernel that
// dropped dirty pages would lose it. Callers must therefore fail-stop,
// not retry.
//
// All knobs apply only to paths accepted by the Match filter (default:
// every path). Cumulative fault counters survive Reset and are exported
// via RegisterMetrics so conservation laws can compare injected faults
// against detected corruptions.
type FaultFS struct {
	inner FS

	mu             sync.Mutex
	rng            *rand.Rand
	failNextWrites int
	failNextSyncs  int
	shortWriteProb float64
	readRotProb    float64
	rotReadFile    bool
	writeBudget    int64 // -1 = unlimited
	opDelay        time.Duration
	match          func(name string) bool

	writesFailed uint64
	syncsFailed  uint64
	tornWrites   uint64
	enospcHits   uint64
	readsRotted  uint64
}

// NewFaultFS wraps inner with fault injection (initially all faults off).
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{inner: inner, rng: rand.New(rand.NewSource(1)), writeBudget: -1}
}

// Seed re-seeds the probabilistic fault source.
func (f *FaultFS) Seed(seed int64) {
	f.mu.Lock()
	f.rng = rand.New(rand.NewSource(seed))
	f.mu.Unlock()
}

// SetMatch restricts all faults to paths for which fn returns true
// (nil matches everything).
func (f *FaultFS) SetMatch(fn func(name string) bool) {
	f.mu.Lock()
	f.match = fn
	f.mu.Unlock()
}

// FailNextWrites makes the next n matching writes fail.
func (f *FaultFS) FailNextWrites(n int) {
	f.mu.Lock()
	f.failNextWrites = n
	f.mu.Unlock()
}

// FailNextSyncs makes the next n matching syncs fail (dropping the
// unsynced tail).
func (f *FaultFS) FailNextSyncs(n int) {
	f.mu.Lock()
	f.failNextSyncs = n
	f.mu.Unlock()
}

// SetShortWriteProb sets the probability that a write is torn: a strict
// prefix reaches the file, then the write errors.
func (f *FaultFS) SetShortWriteProb(p float64) {
	f.mu.Lock()
	f.shortWriteProb = p
	f.mu.Unlock()
}

// SetReadRot sets the probability that a Read/ReadAt returns a buffer
// with one flipped bit. includeReadFile extends rot to whole-file reads
// (recovery paths).
func (f *FaultFS) SetReadRot(p float64, includeReadFile bool) {
	f.mu.Lock()
	f.readRotProb = p
	f.rotReadFile = includeReadFile
	f.mu.Unlock()
}

// SetWriteBudget allows n more bytes of writes before ENOSPC (-1 =
// unlimited).
func (f *FaultFS) SetWriteBudget(n int64) {
	f.mu.Lock()
	f.writeBudget = n
	f.mu.Unlock()
}

// SetOpDelay adds a fixed delay to every matching operation (slow disk).
func (f *FaultFS) SetOpDelay(d time.Duration) {
	f.mu.Lock()
	f.opDelay = d
	f.mu.Unlock()
}

// Reset turns all fault knobs off. Cumulative counters are preserved.
func (f *FaultFS) Reset() {
	f.mu.Lock()
	f.failNextWrites = 0
	f.failNextSyncs = 0
	f.shortWriteProb = 0
	f.readRotProb = 0
	f.rotReadFile = false
	f.writeBudget = -1
	f.opDelay = 0
	f.match = nil
	f.mu.Unlock()
}

// WritesFailed returns the cumulative count of injected write errors.
func (f *FaultFS) WritesFailed() uint64 { return atomic.LoadUint64(&f.writesFailed) }

// SyncsFailed returns the cumulative count of injected sync errors.
func (f *FaultFS) SyncsFailed() uint64 { return atomic.LoadUint64(&f.syncsFailed) }

// ReadsRotted returns the cumulative count of bit-rotted reads.
func (f *FaultFS) ReadsRotted() uint64 { return atomic.LoadUint64(&f.readsRotted) }

// RegisterMetrics exports cumulative fault counters into reg. The
// counters are owned by the FaultFS, so they survive node restarts that
// rebuild the registry.
func (f *FaultFS) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("vfs.fault.write_errors", func() uint64 { return atomic.LoadUint64(&f.writesFailed) })
	reg.CounterFunc("vfs.fault.sync_errors", func() uint64 { return atomic.LoadUint64(&f.syncsFailed) })
	reg.CounterFunc("vfs.fault.torn_writes", func() uint64 { return atomic.LoadUint64(&f.tornWrites) })
	reg.CounterFunc("vfs.fault.enospc", func() uint64 { return atomic.LoadUint64(&f.enospcHits) })
	reg.CounterFunc("vfs.fault.read_rot", func() uint64 { return atomic.LoadUint64(&f.readsRotted) })
}

// matches reports whether faults apply to name (locked).
func (f *FaultFS) matchesLocked(name string) bool {
	return f.match == nil || f.match(name)
}

// delay applies the configured slow-disk delay for name.
func (f *FaultFS) delay(name string) {
	f.mu.Lock()
	d := f.opDelay
	ok := f.matchesLocked(name)
	f.mu.Unlock()
	if ok && d > 0 {
		time.Sleep(d)
	}
}

// writeFault decides the fate of an n-byte write to name: the number of
// bytes to let through and the error to return (nil = full success).
func (f *FaultFS) writeFault(name string, n int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.matchesLocked(name) {
		return n, nil
	}
	if f.writeBudget >= 0 {
		if f.writeBudget < int64(n) {
			allowed := int(f.writeBudget)
			f.writeBudget = 0
			atomic.AddUint64(&f.enospcHits, 1)
			return allowed, ErrNoSpace
		}
		f.writeBudget -= int64(n)
	}
	if f.failNextWrites > 0 {
		f.failNextWrites--
		atomic.AddUint64(&f.writesFailed, 1)
		return 0, ErrInjected
	}
	if f.shortWriteProb > 0 && n > 1 && f.rng.Float64() < f.shortWriteProb {
		atomic.AddUint64(&f.tornWrites, 1)
		return f.rng.Intn(n-1) + 1, ErrInjected
	}
	return n, nil
}

// syncFault reports whether a sync of name should fail.
func (f *FaultFS) syncFault(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.matchesLocked(name) {
		return false
	}
	if f.failNextSyncs > 0 {
		f.failNextSyncs--
		atomic.AddUint64(&f.syncsFailed, 1)
		return true
	}
	return false
}

// rot flips one random bit of p when read rot fires for name.
func (f *FaultFS) rot(name string, p []byte, wholeFile bool) {
	if len(p) == 0 {
		return
	}
	f.mu.Lock()
	fire := f.matchesLocked(name) && f.readRotProb > 0 &&
		(!wholeFile || f.rotReadFile) && f.rng.Float64() < f.readRotProb
	var idx, bit int
	if fire {
		idx = f.rng.Intn(len(p))
		bit = f.rng.Intn(8)
	}
	f.mu.Unlock()
	if fire {
		p[idx] ^= 1 << bit
		atomic.AddUint64(&f.readsRotted, 1)
	}
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	f.delay(name)
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// Open implements FS.
func (f *FaultFS) Open(name string) (File, error) {
	f.delay(name)
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return f.wrap(inner)
}

// OpenFile implements FS.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f.delay(name)
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f.wrap(inner)
}

// wrap builds a faultFile whose synced size starts at the current size
// (content present at open is assumed durable).
func (f *FaultFS) wrap(inner File) (File, error) {
	st, err := inner.Stat()
	if err != nil {
		inner.Close()
		return nil, err
	}
	return &faultFile{fs: f, inner: inner, syncedSize: st.Size()}, nil
}

// ReadFile implements FS.
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	f.delay(name)
	b, err := f.inner.ReadFile(name)
	if err == nil {
		f.rot(name, b, true)
	}
	return b, err
}

// Stat implements FS.
func (f *FaultFS) Stat(name string) (os.FileInfo, error) { return f.inner.Stat(name) }

// Rename implements FS.
func (f *FaultFS) Rename(oldname, newname string) error {
	f.delay(oldname)
	return f.inner.Rename(oldname, newname)
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	f.delay(name)
	return f.inner.Remove(name)
}

// Truncate implements FS.
func (f *FaultFS) Truncate(name string, size int64) error {
	f.delay(name)
	return f.inner.Truncate(name, size)
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

// ReadDir implements FS.
func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) { return f.inner.ReadDir(name) }

// SyncDir implements FS. Directory syncs share the sync fault knobs.
func (f *FaultFS) SyncDir(dir string) error {
	f.delay(dir)
	if f.syncFault(dir) {
		return ErrInjected
	}
	return f.inner.SyncDir(dir)
}

// faultFile wraps one file handle and tracks how much of it is known
// synced, so an injected sync failure can drop the unsynced tail.
type faultFile struct {
	fs    *FaultFS
	inner File

	mu         sync.Mutex
	syncedSize int64
	written    int64 // bytes appended through this handle since open
}

// Name implements File.
func (ff *faultFile) Name() string { return ff.inner.Name() }

// Write implements File.
func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.delay(ff.inner.Name())
	allow, ferr := ff.fs.writeFault(ff.inner.Name(), len(p))
	var n int
	var err error
	if allow > 0 {
		n, err = ff.inner.Write(p[:allow])
	}
	if err == nil && ferr != nil {
		err = ferr
	}
	ff.mu.Lock()
	ff.written += int64(n)
	ff.mu.Unlock()
	return n, err
}

// Read implements File.
func (ff *faultFile) Read(p []byte) (int, error) {
	ff.fs.delay(ff.inner.Name())
	n, err := ff.inner.Read(p)
	if n > 0 {
		ff.fs.rot(ff.inner.Name(), p[:n], false)
	}
	return n, err
}

// ReadAt implements File.
func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	ff.fs.delay(ff.inner.Name())
	n, err := ff.inner.ReadAt(p, off)
	if n > 0 {
		ff.fs.rot(ff.inner.Name(), p[:n], false)
	}
	return n, err
}

// Sync implements File. An injected failure truncates the file back to
// its last known-synced size (the kernel dropped the dirty pages) and
// returns an error; the caller must treat the handle as dead.
func (ff *faultFile) Sync() error {
	ff.fs.delay(ff.inner.Name())
	if ff.fs.syncFault(ff.inner.Name()) {
		ff.mu.Lock()
		size := ff.syncedSize
		ff.mu.Unlock()
		ff.inner.Truncate(size)
		return ErrInjected
	}
	if err := ff.inner.Sync(); err != nil {
		return err
	}
	ff.mu.Lock()
	if st, err := ff.inner.Stat(); err == nil {
		ff.syncedSize = st.Size()
	} else {
		ff.syncedSize += ff.written
	}
	ff.written = 0
	ff.mu.Unlock()
	return nil
}

// Truncate implements File.
func (ff *faultFile) Truncate(size int64) error {
	err := ff.inner.Truncate(size)
	if err == nil {
		ff.mu.Lock()
		if ff.syncedSize > size {
			ff.syncedSize = size
		}
		ff.mu.Unlock()
	}
	return err
}

// Close implements File.
func (ff *faultFile) Close() error { return ff.inner.Close() }

// Stat implements File.
func (ff *faultFile) Stat() (os.FileInfo, error) { return ff.inner.Stat() }
