package txn

import (
	"fmt"
	"time"

	"treaty/internal/fibers"
	"treaty/internal/lsm"
)

// Txn is a pessimistic transaction: strict two-phase locking (§II-A,
// §V-B). Reads take shared locks, writes exclusive locks; all locks are
// held until commit or rollback, which with commit-time WAL ordering
// gives strict serializability on this node.
type Txn struct {
	m      *Manager
	id     uint64
	writes writeBuffer
	locked []string // acquisition order, for release
	state  txnState
	f      *fibers.Fiber // runs the current operation and waits parked; nil on a goroutine
}

// BeginPessimistic starts a pessimistic transaction run by fiber f (nil
// on a goroutine).
func (m *Manager) BeginPessimistic(f *fibers.Fiber) *Txn {
	return &Txn{
		m:      m,
		id:     m.nextID.Add(1),
		writes: newWriteBuffer(),
		state:  txnActive,
		f:      f,
	}
}

// ID returns the transaction's local id.
func (t *Txn) ID() uint64 { return t.id }

// ReadOnly reports whether the transaction has buffered no writes.
func (t *Txn) ReadOnly() bool { return t.writes.empty() }

// SetFiber rebinds the waiting fiber. A transaction whose operations
// arrive on different fibers (the 2PC participant) must bind the
// *current* fiber before each operation; parking another fiber corrupts
// the scheduler.
func (t *Txn) SetFiber(f *fibers.Fiber) { t.f = f }

// lock acquires key in mode, remembering it for release.
func (t *Txn) lock(key string, mode LockMode) error {
	before := t.m.locks.HeldMode(t.id, key)
	if err := t.m.locks.Acquire(t.id, key, mode, t.f); err != nil {
		return err
	}
	if before == 0 {
		t.locked = append(t.locked, key)
	}
	return nil
}

// Get reads key: buffered writes win (read-my-own-writes); otherwise a
// shared lock is taken and the latest committed version is read.
func (t *Txn) Get(key []byte) ([]byte, bool, error) {
	if t.state != txnActive {
		return nil, false, ErrTxnDone
	}
	ks := string(key)
	if v, deleted, ok := t.writes.get(ks); ok {
		return v, !deleted, nil
	}
	if err := t.lock(ks, LockShared); err != nil {
		return nil, false, err
	}
	v, _, found, err := t.m.db.Get(key, t.m.db.LatestSeq())
	return v, found, err
}

// Put buffers a write under an exclusive lock.
func (t *Txn) Put(key, value []byte) error {
	if t.state != txnActive {
		return ErrTxnDone
	}
	if err := t.lock(string(key), LockExclusive); err != nil {
		return err
	}
	t.writes.put(key, value)
	return nil
}

// Delete buffers a tombstone under an exclusive lock.
func (t *Txn) Delete(key []byte) error {
	if t.state != txnActive {
		return ErrTxnDone
	}
	if err := t.lock(string(key), LockExclusive); err != nil {
		return err
	}
	t.writes.del(key)
	return nil
}

// Commit logs the write set to the WAL (group commit), applies it to the
// MemTable, waits for its token to stabilize, and releases all locks.
// "We only reply to a client after the Tx becomes stable, ensuring that
// upon a crash, clients will not have to re-execute successfully
// committed transactions" (§V-B). A distributed transaction's sole writer
// commits here too: its WAL record is the decision.
func (t *Txn) Commit() error {
	if t.state != txnActive {
		return ErrTxnDone
	}
	defer t.finish(txnCommitted)
	if t.writes.empty() {
		return nil // read-only
	}
	token, _, err := t.m.db.Apply(t.writes.batch)
	if err != nil {
		t.finish(txnAborted)
		return fmt.Errorf("txn: commit: %w", err)
	}
	if err := token.Await(time.Time{}, t.f); err != nil {
		return fmt.Errorf("txn: stabilization: %w", err)
	}
	return nil
}

// Rollback discards buffered writes and releases locks.
func (t *Txn) Rollback() error {
	if t.state != txnActive && t.state != txnPrepared {
		return ErrTxnDone
	}
	t.finish(txnAborted)
	return nil
}

// finish releases resources exactly once.
func (t *Txn) finish(final txnState) {
	if t.state == txnCommitted || t.state == txnAborted {
		return
	}
	t.state = final
	t.m.locks.ReleaseAll(t.id, t.locked)
	t.locked = nil
}

// --- Local half of two-phase commit (used by the participant, §V-A) ---

// Prepare durably logs the transaction's write set under the global id
// and waits until the prepare entry is stabilized: "Participants delay
// replying back to the coordinator until the prepare entry in the log is
// stabilized" (§V-A step 8). Locks stay held.
func (t *Txn) Prepare(global lsm.TxID) error {
	if t.state != txnActive {
		return ErrTxnDone
	}
	token, err := t.m.db.LogPrepare(global, t.writes.batch)
	if err != nil {
		return fmt.Errorf("txn: prepare: %w", err)
	}
	if err := token.Await(time.Time{}, t.f); err != nil {
		return fmt.Errorf("txn: prepare stabilization: %w", err)
	}
	t.state = txnPrepared
	return nil
}

// RestorePrepared rebuilds a prepared transaction found in the WAL at
// recovery: the write set is replayed into a fresh transaction (re-
// acquiring its exclusive locks) and the state set directly to prepared —
// the prepare record already exists durably, so nothing is re-logged.
func (m *Manager) RestorePrepared(batch *lsm.Batch, f *fibers.Fiber) (*Txn, error) {
	t := m.BeginPessimistic(f)
	err := batch.Each(func(kind lsm.RecordKind, key, value []byte) error {
		if kind == lsm.KindSet {
			return t.Put(key, value)
		}
		return t.Delete(key)
	})
	if err != nil {
		t.Rollback()
		return nil, fmt.Errorf("txn: restoring prepared tx: %w", err)
	}
	t.state = txnPrepared
	return t, nil
}

// CommitPrepared applies a prepared transaction (decision = commit): one
// self-contained outcome record carries the verdict and the write set,
// the engine applies it, and locks are released. The record need not be
// stable before acknowledging — after a crash the transaction is found
// prepared and the same decision re-derives from the coordinator's
// stabilized Clog (§V-A).
func (t *Txn) CommitPrepared(global lsm.TxID) error {
	if t.state != txnPrepared {
		return ErrTxnDone
	}
	defer t.finish(txnCommitted)
	if _, err := t.m.db.LogOutcome(global, true, t.writes.batch); err != nil {
		return fmt.Errorf("txn: commit prepared: %w", err)
	}
	return nil
}

// AbortPrepared logs an abort outcome for a prepared transaction and
// releases its locks.
func (t *Txn) AbortPrepared(global lsm.TxID) error {
	if t.state != txnPrepared {
		return ErrTxnDone
	}
	defer t.finish(txnAborted)
	if _, err := t.m.db.LogOutcome(global, false, nil); err != nil {
		return fmt.Errorf("txn: abort prepared: %w", err)
	}
	return nil
}
