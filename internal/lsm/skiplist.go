package lsm

import (
	"math/rand"
	"sync/atomic"
	"unsafe"
)

// skipList is a concurrent skip list over internal keys supporting
// lock-free reads and CAS-based parallel inserts — the paper's "MemTable
// skip list that supports parallel updates for concurrent Tx processing"
// (§VII-B). Keys are never deleted (the MemTable is immutable once
// flushed), which keeps the lock-free insert simple and correct.
type skipList struct {
	head   *slNode
	height atomic.Int32
	seed   atomic.Uint64
	// size tracks approximate memory footprint (keys + node overhead).
	size atomic.Int64
	// count tracks the number of entries.
	count atomic.Int64
}

const slMaxHeight = 16

// slNode is one skip-list node. value is the MemTable's ValueHandle,
// immutable after insert.
type slNode struct {
	key   []byte
	value valueHandle
	// next[i] is the next node at level i, accessed atomically.
	next []unsafe.Pointer
}

// loadNext atomically loads the successor at level h.
func (n *slNode) loadNext(h int) *slNode {
	return (*slNode)(atomic.LoadPointer(&n.next[h]))
}

// casNext atomically installs the successor at level h.
func (n *slNode) casNext(h int, old, new *slNode) bool {
	return atomic.CompareAndSwapPointer(&n.next[h], unsafe.Pointer(old), unsafe.Pointer(new))
}

// newSkipList creates an empty list.
func newSkipList() *skipList {
	sl := &skipList{
		head: &slNode{next: make([]unsafe.Pointer, slMaxHeight)},
	}
	sl.height.Store(1)
	sl.seed.Store(rand.Uint64() | 1)
	return sl
}

// randomHeight draws a geometric height (p = 1/4, like LevelDB).
func (sl *skipList) randomHeight() int {
	// xorshift64 on an atomic seed: fast and contention-tolerant.
	for {
		old := sl.seed.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if sl.seed.CompareAndSwap(old, x) {
			h := 1
			for h < slMaxHeight && x&3 == 0 {
				h++
				x >>= 2
			}
			return h
		}
	}
}

// findGreaterOrEqual returns the first node with key >= target and, if
// prev is non-nil, fills prev[i] with the rightmost node < target at each
// level.
func (sl *skipList) findGreaterOrEqual(target []byte, prev *[slMaxHeight]*slNode) *slNode {
	x := sl.head
	level := int(sl.height.Load()) - 1
	for {
		next := x.loadNext(level)
		if next != nil && compareIKeys(next.key, target) < 0 {
			x = next
			continue
		}
		if prev != nil {
			prev[level] = x
		}
		if level == 0 {
			return next
		}
		level--
	}
}

// insert adds key (an internal key, unique by construction: every insert
// carries a fresh sequence number) with its value handle.
func (sl *skipList) insert(key []byte, value valueHandle) {
	h := sl.randomHeight()
	if cur := int(sl.height.Load()); h > cur {
		// Raise the list height; racing raisers are all fine because
		// extra height simply points from head.
		for {
			cur := sl.height.Load()
			if int(cur) >= h || sl.height.CompareAndSwap(cur, int32(h)) {
				break
			}
		}
	}
	node := &slNode{key: key, value: value, next: make([]unsafe.Pointer, h)}
	// One search finds every level's predecessor; a level whose splice
	// went stale (a lost CAS, a smaller key slipped in) walks on from it.
	var prev [slMaxHeight]*slNode
	sl.findGreaterOrEqual(key, &prev)
	for level := 0; level < h; level++ {
		p := prev[level]
		for {
			succ := p.loadNext(level)
			if succ != nil && compareIKeys(succ.key, key) < 0 {
				p = succ
				continue
			}
			// Position node between p and succ at this level.
			atomic.StorePointer(&node.next[level], unsafe.Pointer(succ))
			if p.casNext(level, succ, node) {
				break
			}
		}
	}
	sl.size.Add(int64(len(key)) + 64)
	sl.count.Add(1)
}

// seek returns the first node with key >= target.
func (sl *skipList) seek(target []byte) *slNode {
	return sl.findGreaterOrEqual(target, nil)
}

// first returns the first node.
func (sl *skipList) first() *slNode { return sl.head.loadNext(0) }

// approximateSize returns the tracked memory footprint in bytes.
func (sl *skipList) approximateSize() int64 { return sl.size.Load() }

// entries returns the number of inserted entries.
func (sl *skipList) entries() int64 { return sl.count.Load() }

// slIterator walks a skip list in key order.
type slIterator struct {
	sl   *skipList
	node *slNode
}

// iterator returns a new iterator positioned before the first entry.
func (sl *skipList) iterator() *slIterator { return &slIterator{sl: sl} }

// SeekToFirst positions at the first entry.
func (it *slIterator) SeekToFirst() { it.node = it.sl.first() }

// Valid reports whether the iterator is positioned at an entry.
func (it *slIterator) Valid() bool { return it.node != nil }

// Next advances the iterator.
func (it *slIterator) Next() { it.node = it.node.loadNext(0) }

// Key returns the current internal key.
func (it *slIterator) Key() []byte { return it.node.key }

// Value returns the current value handle.
func (it *slIterator) Value() valueHandle { return it.node.value }
