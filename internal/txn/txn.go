package txn

import (
	"sync/atomic"
	"time"

	"treaty/internal/lsm"
	"treaty/internal/mempool"
)

// Manager creates and runs transactions against one node's storage
// engine. It owns the lock table, the transaction-id allocator, and the
// write-buffer pool.
type Manager struct {
	db     *lsm.DB
	locks  *LockTable
	pool   *mempool.Pool
	nextID atomic.Uint64

	// waitStable makes Commit wait for rollback protection before
	// acknowledging (the paper's "w/ Stab" configurations). Without it,
	// stabilization still *happens* asynchronously; commits just do not
	// wait for it.
	waitStable bool
}

// Config configures a Manager.
type Config struct {
	// DB is the node's storage engine.
	DB *lsm.DB
	// LockTimeout bounds lock waits (0 = 1s).
	LockTimeout time.Duration
	// Pool supplies write-buffer memory (nil creates one).
	Pool *mempool.Pool
	// WaitStable gates commit acknowledgement on rollback protection.
	WaitStable bool
}

// NewManager creates a transaction manager.
func NewManager(cfg Config) *Manager {
	pool := cfg.Pool
	if pool == nil {
		pool = mempool.New(nil, 8)
	}
	return &Manager{
		db:         cfg.DB,
		locks:      NewLockTable(0, cfg.LockTimeout),
		pool:       pool,
		waitStable: cfg.WaitStable,
	}
}

// DB returns the underlying engine.
func (m *Manager) DB() *lsm.DB { return m.db }

// Locks returns the lock table (used by the 2PC participant).
func (m *Manager) Locks() *LockTable { return m.locks }

// writeRecord is one buffered write.
type writeRecord struct {
	key    string
	off, n int // value location in the arena; n < 0 marks a tombstone
}

// writeBuffer holds a transaction's uncommitted writes as a contiguous
// byte stream (§VII-D) plus an index for read-my-own-writes.
type writeBuffer struct {
	arena *mempool.Arena
	recs  []writeRecord
	index map[string]int // key -> index into recs (latest write wins)
}

// newWriteBuffer creates a buffer backed by the pool.
func newWriteBuffer(pool *mempool.Pool) *writeBuffer {
	return &writeBuffer{
		arena: pool.NewArena(1024),
		index: make(map[string]int),
	}
}

// put buffers a set.
func (w *writeBuffer) put(key string, value []byte) {
	off := w.arena.Append(value)
	w.recs = append(w.recs, writeRecord{key: key, off: off, n: len(value)})
	w.index[key] = len(w.recs) - 1
}

// del buffers a tombstone.
func (w *writeBuffer) del(key string) {
	w.recs = append(w.recs, writeRecord{key: key, n: -1})
	w.index[key] = len(w.recs) - 1
}

// get returns the buffered value for key (read-my-own-writes).
// deleted=true means the transaction deleted it.
func (w *writeBuffer) get(key string) (value []byte, deleted, ok bool) {
	i, ok := w.index[key]
	if !ok {
		return nil, false, false
	}
	r := w.recs[i]
	if r.n < 0 {
		return nil, true, true
	}
	return w.arena.Slice(r.off, r.n), false, true
}

// batch converts the buffer into an engine batch, last-write-wins per key
// preserved by replaying in order.
func (w *writeBuffer) batch() *lsm.Batch {
	b := lsm.NewBatch()
	for _, r := range w.recs {
		if r.n < 0 {
			b.Delete([]byte(r.key))
		} else {
			b.Put([]byte(r.key), w.arena.Slice(r.off, r.n))
		}
	}
	return b
}

// release returns the buffer memory.
func (w *writeBuffer) release() { w.arena.Release() }

// txnState tracks a transaction's lifecycle.
type txnState int

const (
	txnActive txnState = iota + 1
	txnPrepared
	txnCommitted
	txnAborted
)
