// Package txn implements Treaty's single-node transaction layer on top of
// the LSM storage engine (§V-B): pessimistic transactions under strict
// two-phase locking and optimistic transactions validated by sequence
// numbers at commit, a sharded lock table with timeouts, contiguous
// write buffers (§VII-D), and the local half of two-phase commit
// (prepare/commit-prepared/abort) used by the distributed layer.
package txn

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
	"time"

	"treaty/internal/fibers"
)

// Errors returned by this package.
var (
	// ErrLockTimeout indicates a lock could not be acquired within the
	// timeout; the paper's engines "return with a timeout error" and the
	// transaction should abort and retry.
	ErrLockTimeout = errors.New("txn: lock acquisition timed out")
	// ErrConflict indicates optimistic validation failed.
	ErrConflict = errors.New("txn: optimistic validation conflict")
	// ErrTxnDone indicates use of a committed or aborted transaction.
	ErrTxnDone = errors.New("txn: transaction already finished")
)

// LockMode is a lock strength.
type LockMode int

const (
	// LockShared permits concurrent readers.
	LockShared LockMode = iota + 1
	// LockExclusive permits one writer.
	LockExclusive
)

// LockTable is a sharded table of per-key reader/writer locks. "Nodes
// store a table of locks for their keys that is divided across shards,
// each protected with a lock, by splitting the key space. TREATY runs
// with a big number of shards to avoid locking bottlenecks" (§V-B).
type LockTable struct {
	shards  []lockShard
	seed    maphash.Seed
	timeout time.Duration
}

// lockShard is one slice of the key space.
type lockShard struct {
	mu    sync.Mutex
	locks map[string]*keyLock
}

// keyLock tracks the holders of one key's lock.
type keyLock struct {
	// holders maps transaction id to mode. Shared holders coexist; an
	// exclusive holder is alone.
	holders map[uint64]LockMode
	// wait is closed and replaced whenever the lock's state changes, so
	// blocked acquirers can retry.
	wait chan struct{}
}

// NewLockTable creates a table with the given shard count (0 = 1024) and
// acquisition timeout (0 = 1s).
func NewLockTable(shards int, timeout time.Duration) *LockTable {
	if shards <= 0 {
		shards = 1024
	}
	if timeout <= 0 {
		timeout = time.Second
	}
	lt := &LockTable{
		shards:  make([]lockShard, shards),
		seed:    maphash.MakeSeed(),
		timeout: timeout,
	}
	for i := range lt.shards {
		lt.shards[i].locks = make(map[string]*keyLock)
	}
	return lt
}

// shardFor hashes a key to its shard.
func (lt *LockTable) shardFor(key string) *lockShard {
	h := maphash.String(lt.seed, key)
	return &lt.shards[h%uint64(len(lt.shards))]
}

// Acquire takes the lock on key in the given mode for txn. It supports
// re-entrancy (a holder re-acquiring the same or weaker mode) and
// shared→exclusive upgrade when txn is the sole holder. Between
// attempts the caller waits on the lock's wait channel for its state to
// change: a fiber (non-nil f) parked, a goroutine directly.
// Returns ErrLockTimeout after the table's timeout.
//
// The retry loop stays here rather than inside fibers.Wait because each
// attempt waits on a different channel — the one current when the
// attempt failed — which a wait on one fixed wake channel cannot say
// without knowing about locks. The wait itself (pause, timer, final
// poll) is the shared one.
func (lt *LockTable) Acquire(txn uint64, key string, mode LockMode, f *fibers.Fiber) error {
	sh := lt.shardFor(key)
	deadline := time.Now().Add(lt.timeout)
	for {
		sh.mu.Lock()
		kl, ok := sh.locks[key]
		if !ok {
			kl = &keyLock{holders: make(map[uint64]LockMode), wait: make(chan struct{})}
			sh.locks[key] = kl
		}
		if granted := kl.tryGrant(txn, mode); granted {
			sh.mu.Unlock()
			return nil
		}
		wait := kl.wait
		sh.mu.Unlock()

		if !fibers.Wait(nil, wait, deadline, f) {
			return fmt.Errorf("%w: key %q", ErrLockTimeout, key)
		}
	}
}

// tryGrant attempts to grant (shard lock held).
func (kl *keyLock) tryGrant(txn uint64, mode LockMode) bool {
	cur, holds := kl.holders[txn]
	switch mode {
	case LockShared:
		if holds {
			return true // S under S or X: fine
		}
		for _, m := range kl.holders {
			if m == LockExclusive {
				return false
			}
		}
		kl.holders[txn] = LockShared
		return true
	case LockExclusive:
		if holds && cur == LockExclusive {
			return true
		}
		if holds && len(kl.holders) == 1 {
			// Upgrade: sole holder.
			kl.holders[txn] = LockExclusive
			return true
		}
		if !holds && len(kl.holders) == 0 {
			kl.holders[txn] = LockExclusive
			return true
		}
		return false
	default:
		return false
	}
}

// Release drops txn's lock on key.
func (lt *LockTable) Release(txn uint64, key string) {
	sh := lt.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	kl, ok := sh.locks[key]
	if !ok {
		return
	}
	if _, held := kl.holders[txn]; !held {
		return
	}
	delete(kl.holders, txn)
	close(kl.wait)
	kl.wait = make(chan struct{})
	if len(kl.holders) == 0 {
		delete(sh.locks, key)
	}
}

// ReleaseAll drops every lock txn holds among keys.
func (lt *LockTable) ReleaseAll(txn uint64, keys []string) {
	for _, k := range keys {
		lt.Release(txn, k)
	}
}

// HeldMode reports txn's current mode on key (0 if none) — test hook.
func (lt *LockTable) HeldMode(txn uint64, key string) LockMode {
	sh := lt.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if kl, ok := sh.locks[key]; ok {
		return kl.holders[txn]
	}
	return 0
}
