package lsm

import (
	"fmt"
	"sync"

	"treaty/internal/enclave"
	"treaty/internal/seal"
)

// valueHandle locates one value for a skip-list entry. Following
// SPEICHER's MemTable design as adapted by Treaty (§V-B), keys (with their
// version) live in the enclave skip list while values live in untrusted
// host memory, encrypted; the handle keeps the pointer (arena offset) and
// the secure hash needed to prove the value's authenticity on access.
type valueHandle struct {
	// off/len locate the stored bytes in the MemTable's host arena.
	off, len int
	// hash authenticates the plaintext value (levels >= integrity).
	hash [seal.HashSize]byte
	// kind distinguishes puts from tombstones (tombstones carry no value).
	kind RecordKind
}

// memTable buffers recent writes: an enclave-resident concurrent skip
// list of internal keys pointing into a host-memory value arena.
type memTable struct {
	list  *skipList
	level seal.SecurityLevel
	rt    *enclave.Runtime
	ciph  *seal.Cipher

	// mu guards the arena only; skip-list inserts are lock-free.
	mu    sync.Mutex
	arena []byte

	logNumber uint64 // WAL file this memtable's entries are logged in

	// maxSeq is the largest sequence number inserted; it becomes the
	// manifest's lastSeq checkpoint when this memtable flushes, so WAL
	// replay after recovery re-derives identical sequence numbers.
	maxSeq uint64
}

// newMemTable creates a memtable. ciph may be nil below LevelEncrypted.
func newMemTable(level seal.SecurityLevel, rt *enclave.Runtime, ciph *seal.Cipher, logNumber uint64) *memTable {
	return &memTable{
		list:      newSkipList(),
		level:     level,
		rt:        rt,
		ciph:      ciph,
		logNumber: logNumber,
	}
}

// add inserts one record. Values are stored in the host arena (encrypted
// at LevelEncrypted); the skip list holds the key, version, value pointer
// and value hash inside the enclave.
func (m *memTable) add(seq uint64, kind RecordKind, userKey, value []byte) {
	h := valueHandle{kind: kind}
	if kind == KindSet {
		stored := value
		if m.level >= seal.LevelIntegrity {
			h.hash = seal.Hash(value)
		}
		if m.level == seal.LevelEncrypted {
			stored = m.ciph.Seal(value, nil)
		}
		m.mu.Lock()
		h.off = len(m.arena)
		h.len = len(stored)
		if h.off+h.len > cap(m.arena) { // double: append grows by a quarter
			m.arena = append(make([]byte, 0, 2*cap(m.arena)+h.len), m.arena...)
		}
		m.arena = append(m.arena, stored...)
		m.mu.Unlock()
		if m.rt != nil {
			m.rt.AllocHost(len(stored))
			// Keys and handles live in the enclave.
			m.rt.AllocEnclave(len(userKey) + 8 + 48)
		}
	} else if m.rt != nil {
		m.rt.AllocEnclave(len(userKey) + 8 + 48)
	}
	m.list.insert(makeIKey(userKey, seq, kind), h)
	m.mu.Lock()
	if seq > m.maxSeq {
		m.maxSeq = seq
	}
	m.mu.Unlock()
}

// resolve fetches, decrypts, and integrity-checks the value behind h.
func (m *memTable) resolve(h valueHandle) ([]byte, error) {
	if h.kind == KindDelete {
		return nil, nil
	}
	m.mu.Lock()
	stored := m.arena[h.off : h.off+h.len]
	m.mu.Unlock()
	value := stored
	if m.level == seal.LevelEncrypted {
		plain, err := m.ciph.Open(stored, nil)
		if err != nil {
			return nil, fmt.Errorf("lsm: memtable value: %w", err)
		}
		value = plain
	} else {
		value = append([]byte(nil), stored...)
	}
	if m.level >= seal.LevelIntegrity && seal.Hash(value) != h.hash {
		// The host arena was tampered with and (at LevelIntegrity)
		// encryption was not there to catch it.
		return nil, fmt.Errorf("lsm: memtable value: %w", seal.ErrIntegrity)
	}
	return value, nil
}

// get looks up the newest visible version of userKey at readSeq. It
// returns (value, seq, kind, true) when a record is visible.
func (m *memTable) get(userKey []byte, readSeq uint64) (value []byte, seq uint64, kind RecordKind, ok bool, err error) {
	node := m.list.seek(makeIKey(userKey, readSeq, RecordKind(0xFF)))
	if node == nil {
		return nil, 0, 0, false, nil
	}
	uk, s, k := parseIKey(node.key)
	if string(uk) != string(userKey) {
		return nil, 0, 0, false, nil
	}
	v, rerr := m.resolve(node.value)
	if rerr != nil {
		return nil, 0, 0, false, rerr
	}
	return v, s, k, true, nil
}

// approximateSize returns the combined footprint (enclave keys + host
// values) used for flush triggering.
func (m *memTable) approximateSize() int64 {
	m.mu.Lock()
	arena := int64(len(m.arena))
	m.mu.Unlock()
	return m.list.approximateSize() + arena
}

// entries returns the number of records.
func (m *memTable) entries() int64 { return m.list.entries() }

// release returns the memtable's accounted memory to the runtime.
func (m *memTable) release() {
	if m.rt == nil {
		return
	}
	m.mu.Lock()
	arena := len(m.arena)
	m.mu.Unlock()
	m.rt.FreeHost(arena)
	m.rt.FreeEnclave(int(m.list.approximateSize()))
}

// memIterator iterates a memtable in internal-key order, resolving
// values lazily.
type memIterator struct {
	m  *memTable
	it *slIterator
}

// newIterator returns an iterator over the memtable.
func (m *memTable) newIterator() *memIterator {
	return &memIterator{m: m, it: m.list.iterator()}
}

// SeekToFirst implements internalIterator.
func (it *memIterator) SeekToFirst() { it.it.SeekToFirst() }

// Valid implements internalIterator.
func (it *memIterator) Valid() bool { return it.it.Valid() }

// Next implements internalIterator.
func (it *memIterator) Next() { it.it.Next() }

// Key implements internalIterator.
func (it *memIterator) Key() []byte { return it.it.Key() }

// Value implements internalIterator; it resolves (decrypts + verifies)
// the value.
func (it *memIterator) Value() ([]byte, error) { return it.m.resolve(it.it.Value()) }
