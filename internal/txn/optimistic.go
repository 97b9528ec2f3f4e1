package txn

import (
	"fmt"
	"sort"
	"time"

	"treaty/internal/durlog"
	"treaty/internal/fibers"
)

// OTxn is an optimistic transaction: reads run lock-free against a
// snapshot, recording each key's observed sequence number; writes buffer
// locally. Commit validates the read set — every read key's latest
// version must still match the observed one — under short exclusive
// latches on the write set, then installs atomically. "Optimistic Txs use
// sequence numbers to identify conflicts at the commit phase" (§V-B).
type OTxn struct {
	m       *Manager
	id      uint64
	readSeq uint64
	writes  writeBuffer
	reads   map[string]uint64 // key -> observed version (0 = absent)
	state   txnState
	f       *fibers.Fiber // see Txn.f
}

// BeginOptimistic starts an optimistic transaction reading from the
// current snapshot.
func (m *Manager) BeginOptimistic(f *fibers.Fiber) *OTxn {
	return &OTxn{
		m:       m,
		id:      m.nextID.Add(1),
		readSeq: m.db.LatestSeq(),
		writes:  newWriteBuffer(),
		reads:   make(map[string]uint64),
		state:   txnActive,
		f:       f,
	}
}

// Get reads key from the snapshot, recording its version for validation.
func (t *OTxn) Get(key []byte) ([]byte, bool, error) {
	if t.state != txnActive {
		return nil, false, ErrTxnDone
	}
	ks := string(key)
	if v, deleted, ok := t.writes.get(ks); ok {
		return v, !deleted, nil
	}
	v, seq, found, err := t.m.db.Get(key, t.readSeq)
	if err != nil {
		return nil, false, err
	}
	if _, seen := t.reads[ks]; !seen {
		if found {
			t.reads[ks] = seq
		} else {
			t.reads[ks] = 0
		}
	}
	return v, found, nil
}

// Put buffers a write (no lock taken until commit).
func (t *OTxn) Put(key, value []byte) error {
	if t.state != txnActive {
		return ErrTxnDone
	}
	t.writes.put(key, value)
	return nil
}

// Delete buffers a tombstone.
func (t *OTxn) Delete(key []byte) error {
	if t.state != txnActive {
		return ErrTxnDone
	}
	t.writes.del(key)
	return nil
}

// Commit validates and installs. Returns ErrConflict if any read key's
// version changed since it was observed; the caller retries the
// transaction.
func (t *OTxn) Commit() error {
	if t.state != txnActive {
		return ErrTxnDone
	}
	// Latch the write set exclusively and the read set shared, in sorted
	// key order (deadlock avoidance). Shared read latches prevent a
	// concurrent committer from invalidating the read set between
	// validation and install.
	modes := make(map[string]LockMode, len(t.reads)+len(t.writes.index))
	for k := range t.reads {
		modes[k] = LockShared
	}
	for k := range t.writes.index {
		modes[k] = LockExclusive
	}
	keys := make([]string, 0, len(modes))
	for k := range modes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var latched []string
	release := func() { t.m.locks.ReleaseAll(t.id, latched) }
	for _, k := range keys {
		if err := t.m.locks.Acquire(t.id, k, modes[k], t.f); err != nil {
			release()
			t.state = txnAborted
			return err
		}
		latched = append(latched, k)
	}

	// Validate the read set against the current state.
	for k, observed := range t.reads {
		_, cur, found, err := t.m.db.Get([]byte(k), t.m.db.LatestSeq())
		if err != nil {
			release()
			t.state = txnAborted
			return err
		}
		current := uint64(0)
		if found {
			current = cur
		}
		if current != observed {
			release()
			t.state = txnAborted
			return fmt.Errorf("%w: key %q version %d -> %d", ErrConflict, k, observed, current)
		}
	}

	var token durlog.StableToken
	if !t.writes.empty() {
		var err error
		token, _, err = t.m.db.Apply(t.writes.batch)
		if err != nil {
			release()
			t.state = txnAborted
			return err
		}
	}
	release()
	t.state = txnCommitted
	return token.Await(time.Time{}, t.f) // a read-only commit's zero token is ready
}

// Rollback discards the transaction.
func (t *OTxn) Rollback() error {
	if t.state != txnActive {
		return ErrTxnDone
	}
	t.state = txnAborted
	return nil
}
