package lsm

import (
	"bytes"
	"container/heap"
)

// internalIterator walks internal-key/value records in internal-key
// order. Implemented by memIterator, sstIterator and mergeIterator.
type internalIterator interface {
	SeekToFirst()
	Valid() bool
	Next()
	Key() []byte
	Value() ([]byte, error)
}

// mergeIterator merges several internalIterators. Ties on identical
// internal keys cannot happen (sequence numbers are unique), so ordering
// is strict.
type mergeIterator struct {
	iters []internalIterator
	h     iterHeap
	err   error
}

// iterHeap orders live child iterators by current key.
type iterHeap []internalIterator

func (h iterHeap) Len() int { return len(h) }
func (h iterHeap) Less(i, j int) bool {
	return compareIKeys(h[i].Key(), h[j].Key()) < 0
}
func (h iterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *iterHeap) Push(x any)   { *h = append(*h, x.(internalIterator)) }
func (h *iterHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// newMergeIterator builds a merge iterator over children.
func newMergeIterator(iters []internalIterator) *mergeIterator {
	return &mergeIterator{iters: iters}
}

// rebuild re-heapifies after repositioning all children.
func (m *mergeIterator) rebuild() {
	m.h = m.h[:0]
	for _, it := range m.iters {
		if it.Valid() {
			m.h = append(m.h, it)
		}
	}
	heap.Init(&m.h)
}

// SeekToFirst implements internalIterator.
func (m *mergeIterator) SeekToFirst() {
	for _, it := range m.iters {
		it.SeekToFirst()
	}
	m.rebuild()
}

// Valid implements internalIterator.
func (m *mergeIterator) Valid() bool { return len(m.h) > 0 }

// Next implements internalIterator.
func (m *mergeIterator) Next() {
	if len(m.h) == 0 {
		return
	}
	top := m.h[0]
	top.Next()
	if top.Valid() {
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
}

// Key implements internalIterator.
func (m *mergeIterator) Key() []byte { return m.h[0].Key() }

// Value implements internalIterator.
func (m *mergeIterator) Value() ([]byte, error) { return m.h[0].Value() }

// Iterator is the user-facing snapshot iterator: it surfaces the newest
// visible version of each user key at the iterator's read sequence,
// hiding tombstones, shadowed versions, and future writes.
type Iterator struct {
	inner   internalIterator
	readSeq uint64
	key     []byte
	value   []byte
	valid   bool
	err     error
}

// newIterator wraps an internal iterator with snapshot semantics.
func newIterator(inner internalIterator, readSeq uint64) *Iterator {
	return &Iterator{inner: inner, readSeq: readSeq}
}

// SeekToFirst positions at the first visible user key.
func (it *Iterator) SeekToFirst() {
	it.inner.SeekToFirst()
	it.skipToVisible(nil)
}

// Next advances to the next visible user key.
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	prev := append([]byte(nil), it.key...)
	it.inner.Next()
	it.skipToVisible(prev)
}

// skipToVisible advances the inner iterator to the newest visible,
// non-deleted version of the next user key after skipKey.
func (it *Iterator) skipToVisible(skipKey []byte) {
	it.valid = false
	for it.inner.Valid() {
		uk, seq, kind := parseIKey(it.inner.Key())
		switch {
		case skipKey != nil && bytes.Equal(uk, skipKey):
			// Older version (or any version) of a key we already
			// surfaced or want to skip.
			it.inner.Next()
		case seq > it.readSeq:
			// Future version: not visible in this snapshot; try the
			// same user key at an older sequence.
			it.inner.Next()
		case kind == KindDelete:
			// Newest visible version is a tombstone: the key does not
			// exist; skip all its older versions.
			skipKey = append([]byte(nil), uk...)
			it.inner.Next()
		default:
			v, err := it.inner.Value()
			if err != nil {
				it.err = err
				return
			}
			it.key = append(it.key[:0], uk...)
			it.value = v
			it.valid = true
			return
		}
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.valid }

// Key returns the current user key (valid until the next move).
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value (decrypted and integrity-checked).
func (it *Iterator) Value() []byte { return it.value }

// Err returns the first error the iterator hit (integrity failures
// surface here).
func (it *Iterator) Err() error { return it.err }
