package durlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"treaty/internal/fibers"
	"treaty/internal/vfs"
)

// TrustedCounter is the asynchronous trusted-counter interface a log file
// binds its entries to (§VI). The log assigns deterministic, monotonic
// counter values itself (via the log codec); the trusted counter service
// is told about each appended value (Stabilize) and recovery compares the
// log's last value against the service's quorum-stable value to detect
// rollbacks. The distributed implementation lives in package counter.
type TrustedCounter interface {
	// Stabilize asynchronously records that entries up to value v exist.
	// Waiting on a value is StableToken's job, one loop for every backend.
	Stabilize(v uint64)
	// StableValue returns the current quorum-stable counter value.
	StableValue() uint64
	// Failed returns the counter's permanent failure, if any, without
	// blocking: stabilization waiters consult it on every readiness check.
	Failed() error
	// Changed returns the channel a stabilization wait blocks on: closed
	// (and replaced: fetch it before looking) when the stable value rises
	// or the counter fails. Nil if stable as soon as Stabilize returns.
	Changed() <-chan struct{}
}

// stickyErr is a set-once error readable without a lock.
type stickyErr struct{ p atomic.Pointer[error] }

func (s *stickyErr) get() error {
	if p := s.p.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *stickyErr) set(err error) { s.p.CompareAndSwap(nil, &err) }

// immediateCounter is the TrustedCounter of a log without rollback
// protection: everything is instantly stable, nothing persists, and
// recovery gets no trusted value from it (TrustedValue). A token on it is
// stable once its append returns, so a wait is a single poll.
type immediateCounter struct {
	v      atomic.Uint64
	failed *stickyErr // the family's
}

// ImmediateCounters is a family of immediate counters that fails as one:
// a node without rollback protection hands a member to each of its logs,
// and crash teardown fails every member it ever handed out with one Fail.
type ImmediateCounters struct{ failed stickyErr }

// Counter hands out a new member. It has lsm.CounterFactory's shape; an
// immediate counter persists nothing, so the log name is not used.
func (f *ImmediateCounters) Counter(string) TrustedCounter {
	return &immediateCounter{failed: &f.failed}
}

// Fail fails every member, present and future: each wait on one of
// their tokens reports err.
func (f *ImmediateCounters) Fail(err error) { f.failed.set(err) }

// NewImmediateCounter returns a TrustedCounter that stabilizes instantly,
// a family of one.
func NewImmediateCounter() TrustedCounter { return new(ImmediateCounters).Counter("") }

func (c *immediateCounter) Stabilize(v uint64) {
	for c.Failed() == nil {
		cur := c.v.Load()
		if v <= cur || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (c *immediateCounter) StableValue() uint64      { return c.v.Load() }
func (c *immediateCounter) Failed() error            { return c.failed.get() }
func (c *immediateCounter) Changed() <-chan struct{} { return nil }

// fileCounter is a TrustedCounter that stabilizes instantly but persists
// its value, so recovery's freshness checks see the pre-crash stable value.
// No node uses it: the crash-point harness runs it as its model of an
// ideal local trusted counter.
type fileCounter struct {
	mu   sync.Mutex
	fs   vfs.FS
	path string
	v    atomic.Uint64
	// failed is lock-free because c.mu is held across persist's fsyncs:
	// polling through the mutex would block every waiting fiber behind
	// disk latency.
	failed stickyErr
}

// Counter file format: value (8 bytes LE) ∥ magic (4 bytes) ∥ CRC32 of
// the first 12 bytes. The checksum makes media corruption of a counter
// file detectable: an undetected flip that *lowers* the value would make
// recovery silently discard acknowledged commits as an unstabilized
// tail, and one that raises it would fail recovery as a false rollback.
const (
	counterFileLen   = 16
	counterFileMagic = 0x54435452 // "TCTR"
)

// encodeCounterFile serializes v in the checksummed format.
func encodeCounterFile(v uint64) []byte {
	b := make([]byte, counterFileLen)
	binary.LittleEndian.PutUint64(b[0:], v)
	binary.LittleEndian.PutUint32(b[8:], counterFileMagic)
	binary.LittleEndian.PutUint32(b[12:], crc32.ChecksumIEEE(b[:12]))
	return b
}

// decodeCounterFile parses and verifies a counter file.
func decodeCounterFile(b []byte) (uint64, error) {
	if len(b) != counterFileLen {
		return 0, fmt.Errorf("%d bytes, want %d", len(b), counterFileLen)
	}
	if binary.LittleEndian.Uint32(b[8:]) != counterFileMagic {
		return 0, errors.New("bad magic")
	}
	if binary.LittleEndian.Uint32(b[12:]) != crc32.ChecksumIEEE(b[:12]) {
		return 0, errors.New("checksum mismatch")
	}
	return binary.LittleEndian.Uint64(b), nil
}

// NewFileCounter opens (or creates) a persistent instant-stability
// counter backed by the file at path. A file that exists but fails its
// length or checksum validation is corruption, not an empty counter:
// treating it as value 0 would make recovery discard the log as an
// unstabilized tail. Stabilize's atomic rename never leaves a torn
// file, so one can only appear through external damage.
func NewFileCounter(fs vfs.FS, path string) (TrustedCounter, error) {
	if fs == nil {
		fs = vfs.Default
	}
	c := &fileCounter{fs: fs, path: path}
	b, err := fs.ReadFile(path)
	switch {
	case err == nil:
		v, derr := decodeCounterFile(b)
		if derr != nil {
			return nil, fmt.Errorf("durlog: counter %s corrupt: %v", path, derr)
		}
		c.v.Store(v)
	case !os.IsNotExist(err):
		return nil, fmt.Errorf("durlog: reading counter %s: %w", path, err)
	}
	return c, nil
}

// Stabilize implements TrustedCounter: the value is durable before the
// call returns, keeping the persisted stable value in lockstep with the
// log (the log is synced before it stabilizes, so persisted ≤ synced
// always holds and recovery never discards an acknowledged entry).
// A counter that cannot persist must not advance — advancing only in
// memory would re-open the discard-on-restart hole — so a persist
// failure fail-stops the counter.
func (c *fileCounter) Stabilize(v uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Failed() != nil || v <= c.v.Load() {
		return
	}
	if err := c.persist(v); err != nil {
		c.failed.set(fmt.Errorf("durlog: counter %s persist: %w", c.path, err))
		return
	}
	c.v.Store(v)
}

// persist durably replaces the counter file with v: write-temp + fsync +
// rename + fsync-dir, so a crash at any point leaves either the old value
// or the new one, never a torn or truncated file.
func (c *fileCounter) persist(v uint64) error {
	tmp := c.path + ".tmp"
	f, err := c.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(encodeCounterFile(v)); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = c.fs.Rename(tmp, c.path)
	}
	if err != nil {
		c.fs.Remove(tmp)
		return err
	}
	// Sync the directory so the rename itself survives a crash. If this
	// fails the file already holds v — safe, because the log entry for v
	// was synced before Stabilize was called — but the in-memory value
	// must not advance past what is known durable.
	return c.fs.SyncDir(filepath.Dir(c.path))
}

func (c *fileCounter) StableValue() uint64      { return c.v.Load() }
func (c *fileCounter) Failed() error            { return c.failed.get() }
func (c *fileCounter) Changed() <-chan struct{} { return nil }

// StableToken identifies a log position whose rollback protection can be
// awaited.
type StableToken struct {
	ctr   TrustedCounter
	value uint64
	// deferred marks the token of a record that does not demand a
	// trusted-counter round itself (a WAL outcome record, a Clog
	// prepare): waiting on it has to raise the demand.
	deferred bool
}

// NewToken returns the token of position v on ctr, whose round its
// caller has already demanded (Stabilize).
func NewToken(ctr TrustedCounter, v uint64) StableToken {
	return StableToken{ctr: ctr, value: v}
}

// ErrStabilizeTimeout: a log position did not stabilize by the deadline.
var ErrStabilizeTimeout = errors.New("durlog: stabilization timed out")

// Wait blocks the calling goroutine until the position is
// rollback-protected (Await with no deadline and no fiber).
func (t StableToken) Wait() error { return t.Await(time.Time{}, nil) }

// Await is the one wait on a stable position. It blocks on the counter's
// change channel (fiber f parked, a goroutine directly) until the
// position is rollback-protected or the counter failed, and reports the
// failure. A zero deadline leaves the counter's own failure to bound the
// wait. The loop is here as in LockTable.Acquire: the channel is replaced
// at every change, and a change need not cover this position yet.
func (t StableToken) Await(deadline time.Time, f *fibers.Fiber) error {
	for ready, changed := t.poll(); !ready; ready, changed = t.poll() {
		if !fibers.Wait(nil, changed, deadline, f) {
			return ErrStabilizeTimeout
		}
	}
	if t.ctr == nil {
		return nil
	}
	return t.ctr.Failed()
}

// poll reports (without blocking) whether waiting is over — the position
// is rollback-protected OR the counter failed permanently (Await then
// surfaces the error) — and otherwise the channel to block on before
// polling again, fetched before the deciding look so no change is missed.
// Polling a deferred token raises the demand its record did not.
func (t StableToken) poll() (ready bool, changed <-chan struct{}) {
	if t.ctr == nil {
		return true, nil
	}
	over := func() bool { return t.ctr.Failed() != nil || t.ctr.StableValue() >= t.value }
	if over() {
		return true, nil
	}
	if t.deferred {
		t.ctr.Stabilize(t.value)
	}
	changed = t.ctr.Changed()
	return over(), changed
}

// Ready is poll for a caller that does not wait.
func (t StableToken) Ready() bool { ready, _ := t.poll(); return ready }

// Value returns the log position (trusted counter value) the token waits
// on. Tests use it to check write-path ordering invariants (an acked
// position must never exceed the log's synced prefix).
func (t StableToken) Value() uint64 { return t.value }
