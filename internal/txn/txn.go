package txn

import (
	"sync/atomic"
	"time"

	"treaty/internal/lsm"
)

// Manager creates and runs transactions against one node's storage
// engine. It owns the lock table and the transaction-id allocator.
type Manager struct {
	db     *lsm.DB
	locks  *LockTable
	nextID atomic.Uint64
}

// Config configures a Manager.
type Config struct {
	// DB is the node's storage engine.
	DB *lsm.DB
	// LockTimeout bounds lock waits (0 = 1s).
	LockTimeout time.Duration
}

// NewManager creates a transaction manager.
func NewManager(cfg Config) *Manager {
	return &Manager{
		db:    cfg.DB,
		locks: NewLockTable(0, cfg.LockTimeout),
	}
}

// DB returns the underlying engine.
func (m *Manager) DB() *lsm.DB { return m.db }

// Locks returns the lock table (used by the 2PC participant).
func (m *Manager) Locks() *LockTable { return m.locks }

// writeBuffer holds a transaction's uncommitted writes as the engine
// batch it commits (§VII-D: one contiguous stream of bytes) plus an index
// for read-my-own-writes. The batch keeps every write in order, so its
// last record of a key wins when it is applied.
type writeBuffer struct {
	batch *lsm.Batch
	index map[string]span // key -> its latest value in the batch
}

// span locates a buffered value in the batch; n < 0 marks a tombstone.
type span struct{ off, n int }

func newWriteBuffer() writeBuffer {
	return writeBuffer{batch: lsm.NewBatch(), index: make(map[string]span)}
}

// put buffers a set.
func (w *writeBuffer) put(key, value []byte) {
	w.index[string(key)] = span{w.batch.Put(key, value), len(value)}
}

// del buffers a tombstone.
func (w *writeBuffer) del(key []byte) {
	w.batch.Delete(key)
	w.index[string(key)] = span{n: -1}
}

// get returns a copy of the buffered value for key (read-my-own-writes).
// deleted=true means the transaction deleted it.
func (w *writeBuffer) get(key string) (value []byte, deleted, ok bool) {
	s, ok := w.index[key]
	if !ok || s.n < 0 {
		return nil, ok, ok
	}
	return append([]byte(nil), w.batch.Encoded()[s.off:s.off+s.n]...), false, true
}

// empty reports whether nothing is buffered.
func (w *writeBuffer) empty() bool { return w.batch.Count() == 0 }

// txnState tracks a transaction's lifecycle.
type txnState int

const (
	txnActive txnState = iota + 1
	txnPrepared
	txnCommitted
	txnAborted
)
