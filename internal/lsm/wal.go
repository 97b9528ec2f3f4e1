package lsm

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"treaty/internal/enclave"
	"treaty/internal/seal"
	"treaty/internal/vfs"
)

// TrustedCounter is the asynchronous trusted-counter interface a log file
// binds its entries to (§VI). The LSM assigns deterministic, monotonic
// counter values itself (via the log codec); the trusted counter service
// is told about each appended value (Stabilize) and recovery compares the
// log's last value against the service's quorum-stable value to detect
// rollbacks. Implementations live in package counter; tests may use
// immediate fakes.
type TrustedCounter interface {
	// Stabilize asynchronously records that entries up to value v exist.
	Stabilize(v uint64)
	// WaitStable blocks (or cooperatively yields) until the service has
	// made v rollback-protected.
	WaitStable(v uint64) error
	// StableValue returns the current quorum-stable counter value.
	StableValue() uint64
}

// immediateCounter is a TrustedCounter for native (non-secure) builds and
// unit tests: everything is instantly stable.
type immediateCounter struct{ v atomic.Uint64 }

// Stabilize implements TrustedCounter.
func (c *immediateCounter) Stabilize(v uint64) {
	for {
		cur := c.v.Load()
		if v <= cur || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// WaitStable implements TrustedCounter.
func (c *immediateCounter) WaitStable(uint64) error { return nil }

// StableValue implements TrustedCounter.
func (c *immediateCounter) StableValue() uint64 { return c.v.Load() }

// NewImmediateCounter returns a TrustedCounter that stabilizes instantly
// (used for native baselines, where rollback protection is absent).
func NewImmediateCounter() TrustedCounter { return &immediateCounter{} }

// Entry kinds recorded in the WAL.
const (
	// walKindBatch is a committed write batch.
	walKindBatch uint8 = iota + 1
	// walKindPrepare is a 2PC prepared-transaction record (§V-A): the
	// participant's buffered writes plus the global transaction id.
	walKindPrepare
	// walKindOutcome resolves a previously prepared transaction in one
	// self-contained record: txid ∥ commit byte ∥ write set (on commit).
	// Replay applies the write set and marks the transaction decided in
	// one step, with no reference back to the prepare record.
	walKindOutcome
)

// encodeOutcome builds a walKindOutcome payload; writes is ignored on
// abort.
func encodeOutcome(id TxID, commit bool, writes *Batch) []byte {
	if !commit {
		return append(id[:], 0)
	}
	enc := writes.encode()
	out := make([]byte, 0, len(id)+1+len(enc))
	return append(append(append(out, id[:]...), 1), enc...)
}

// decodeOutcome splits a walKindOutcome payload; writes is the encoded
// write set (nil on abort).
func decodeOutcome(payload []byte) (id TxID, commit bool, writes []byte, err error) {
	if len(payload) <= len(id) {
		return id, false, nil, ErrCorruptBatch
	}
	copy(id[:], payload)
	if payload[len(id)] == 0 {
		return id, false, nil, nil
	}
	return id, true, payload[len(id)+1:], nil
}

// ErrLogPoisoned indicates a log handle that hit a write or sync failure
// and fail-stopped. After a failed fsync the kernel may have dropped the
// dirty pages (fsyncgate), so the log's unsynced tail must be assumed
// lost; retrying appends past the hole would silently splice the log.
// The only safe continuation is a restart that re-runs recovery.
var ErrLogPoisoned = errors.New("lsm: log poisoned by earlier write/sync failure")

// wal is one write-ahead log file. Appends are serialized by the DB's
// commit path (group commit); Sync flushes to stable storage and
// Stabilize binds the tail to the trusted counter.
type wal struct {
	f        vfs.File
	codec    *seal.LogCodec
	rt       *enclave.Runtime
	ctr      TrustedCounter
	path     string
	number   uint64
	buf      []byte
	poisoned error
}

// walFileName builds the WAL path for a file number.
func walFileName(dir string, number uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%06d.log", number))
}

// createWAL creates a fresh WAL file, durably (the creation is
// dir-fsynced so a post-crash recovery sees the file).
func createWAL(fs vfs.FS, dir string, number uint64, level seal.SecurityLevel, key seal.Key, rt *enclave.Runtime, ctr TrustedCounter) (*wal, error) {
	path := walFileName(dir, number)
	codec, err := seal.NewLogCodec(level, key, filepath.Base(path), 1)
	if err != nil {
		return nil, fmt.Errorf("lsm: creating wal codec: %w", err)
	}
	f, err := fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("lsm: creating wal: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: syncing dir after wal create: %w", err)
	}
	if rt != nil {
		rt.Syscall()
	}
	return &wal{f: f, codec: codec, rt: rt, ctr: ctr, path: path, number: number}, nil
}

// stage frames one entry into the group staging buffer without issuing
// any IO, returning its counter value; flushGroup writes every staged
// entry with a single syscall. Splitting framing from IO lets a commit
// group of N entries cross the enclave boundary once instead of N times.
func (w *wal) stage(kind uint8, payload []byte) (uint64, error) {
	if w.poisoned != nil {
		return 0, w.poisoned
	}
	var ctr uint64
	w.buf, ctr = w.codec.AppendEntry(w.buf, kind, payload)
	return ctr, nil
}

// flushGroup writes all staged entries with one write. A failed write
// poisons the handle and fails the whole group: the codec chain has
// already advanced past the lost entries, so no later append may succeed.
func (w *wal) flushGroup() error {
	if w.poisoned != nil {
		return w.poisoned
	}
	if len(w.buf) == 0 {
		return nil
	}
	if w.rt != nil {
		w.rt.Syscall()
	}
	_, err := w.f.Write(w.buf)
	w.buf = w.buf[:0]
	if err != nil {
		w.poisoned = fmt.Errorf("%w: wal write: %v", ErrLogPoisoned, err)
		return fmt.Errorf("lsm: wal write: %w", err)
	}
	return nil
}

// append frames and writes one entry immediately (stage + flushGroup),
// returning its counter value. The write reaches the OS; durability needs
// sync, rollback protection needs stabilize.
func (w *wal) append(kind uint8, payload []byte) (uint64, error) {
	ctr, err := w.stage(kind, payload)
	if err != nil {
		return 0, err
	}
	if err := w.flushGroup(); err != nil {
		return 0, err
	}
	return ctr, nil
}

// sync flushes the file to stable storage. A failure poisons the handle
// (fsyncgate: the unsynced tail must be assumed lost, not retried).
func (w *wal) sync() error {
	if w.poisoned != nil {
		return w.poisoned
	}
	if w.rt != nil {
		w.rt.Syscall()
	}
	if err := w.f.Sync(); err != nil {
		w.poisoned = fmt.Errorf("%w: wal sync: %v", ErrLogPoisoned, err)
		return fmt.Errorf("lsm: wal sync: %w", err)
	}
	return nil
}

// stabilize asynchronously requests rollback protection up to v.
func (w *wal) stabilize(v uint64) { w.ctr.Stabilize(v) }

// stabilizeTail makes every appended entry rollback-protected and waits
// for it. Rotation and Close call it (after the final sync) so that no
// log file keeps an unstabilized suffix once a successor accepts entries:
// the suffix would be discarded at recovery while later, stabilized
// entries in the successor survive.
func (w *wal) stabilizeTail() error {
	return StableToken{ctr: w.ctr, value: w.lastCounter(), deferred: true}.Wait()
}

// lastCounter returns the counter value of the most recent entry (0 when
// empty).
func (w *wal) lastCounter() uint64 { return w.codec.NextCounter() - 1 }

// close closes the file.
func (w *wal) close() error {
	if w.rt != nil {
		w.rt.Syscall()
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("lsm: wal close: %w", err)
	}
	return nil
}

// walEntry is one recovered WAL record.
type walEntry struct {
	kind    uint8
	counter uint64
	payload []byte
}

// ErrRollbackDetected indicates recovery found persistent state that is
// stale or spliced relative to the trusted counter — a rollback or fork
// attack (§VI).
var ErrRollbackDetected = errors.New("lsm: rollback attack detected")

// readWAL replays a WAL file, verifying the hash chain, counter
// continuity, and — at secure levels — freshness against the trusted
// counter service:
//
//  1. Entries with counter value beyond the trusted stable value are an
//     unstabilized tail: discarded (they were never acknowledged).
//  2. A log that ends *before* the trusted stable value is missing
//     rollback-protected entries: ErrRollbackDetected.
//
// A decode failure at the tail is tolerated — reported via torn — when
// it is provably a crash artifact rather than an attack: a byte-level
// truncation (ErrTruncated) anywhere, any failure at LevelNone
// (RocksDB-style recovery stops at the tear), or any failure past the
// trusted stable point (those entries were never acknowledged). A
// non-truncation failure inside the rollback-protected region still
// surfaces as an error. maxStable < 0 skips freshness checks (native
// mode).
func readWAL(fs vfs.FS, path string, level seal.SecurityLevel, key seal.Key, rt *enclave.Runtime, maxStable int64) ([]walEntry, bool, error) {
	codec, err := seal.NewLogCodec(level, key, filepath.Base(path), 1)
	if err != nil {
		return nil, false, fmt.Errorf("lsm: wal codec: %w", err)
	}
	if rt != nil {
		rt.Syscall()
	}
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("lsm: reading wal: %w", err)
	}
	var out []walEntry
	torn := false
	off := 0
	last := uint64(0)
	for off < len(data) {
		if rt != nil {
			// Each entry costs a (SCONE async) syscall to pull across
			// the enclave boundary for verification/decryption — small
			// log entries are the recovery worst case (§VIII-F: "more
			// syscalls, more decryption calls").
			rt.Syscall()
		}
		e, n, derr := codec.DecodeEntry(data[off:])
		if derr != nil {
			if tolerableTear(derr, level, last, maxStable) {
				torn = true
				break
			}
			return nil, false, fmt.Errorf("lsm: wal %s entry at %d: %w", filepath.Base(path), off, derr)
		}
		if maxStable >= 0 && e.Counter > uint64(maxStable) {
			// Unstabilized tail: ignore, it was never rollback-protected
			// and nobody was acknowledged on the strength of it.
			break
		}
		out = append(out, walEntry{kind: e.Kind, counter: e.Counter, payload: e.Payload})
		last = e.Counter
		off += n
	}
	if maxStable > 0 && last < uint64(maxStable) {
		return nil, false, fmt.Errorf("%w: wal %s ends at counter %d, trusted value is %d",
			ErrRollbackDetected, filepath.Base(path), last, maxStable)
	}
	return out, torn, nil
}

// tolerableTear decides whether a log decode failure after entry
// `last` may be treated as a crash-torn tail rather than tampering.
// Byte truncation is always a possible crash artifact (and if it cut
// into the rollback-protected region, the caller's freshness check
// still flags it); other failures (bad checksum, broken chain) are
// tolerable only where the log is unprotected: at LevelNone, when no
// freshness information exists, or strictly past the trusted stable
// point.
func tolerableTear(derr error, level seal.SecurityLevel, last uint64, maxStable int64) bool {
	if errors.Is(derr, seal.ErrTruncated) || level == seal.LevelNone {
		return true
	}
	return maxStable < 0 || last >= uint64(maxStable)
}
