// Package mempool implements Treaty's scalable memory allocator for
// network and storage staging buffers (§VII-D). Buffers are drawn from
// size-class free lists grouped into multiple heaps; allocating goroutines
// are spread across heaps (the paper hashes the thread id) so concurrent
// users do not contend on one lock. Freed buffers are recycled,
// drastically reducing the amount of mapped memory.
//
// Every buffer lives in untrusted host memory (the paper's
// hugepage-backed DMA buffers): free of EPC pressure, but holding only
// what the caller encrypted or has yet to verify. A transaction's write
// set is not drawn from here: it is the engine batch it commits
// (lsm.Batch).
package mempool

import (
	"sync"
	"sync/atomic"

	"treaty/internal/enclave"
)

// Size classes: powers of two from 64 B to 4 MiB. Larger requests are
// allocated directly (and not recycled).
const (
	minClassShift = 6  // 64 B
	maxClassShift = 22 // 4 MiB
	numClasses    = maxClassShift - minClassShift + 1
)

// classFor returns the size-class index for n, or -1 if n is too large.
func classFor(n int) int {
	if n <= 0 {
		n = 1
	}
	for c, shift := 0, minClassShift; shift <= maxClassShift; c, shift = c+1, shift+1 {
		if n <= 1<<shift {
			return c
		}
	}
	return -1
}

// classSize returns the buffer size of class c.
func classSize(c int) int { return 1 << (minClassShift + c) }

// Buf is one allocated buffer. Data is the usable slice (capacity equals
// the size class). Return buffers with Pool.Free; a Buf must not be used
// after Free.
type Buf struct {
	// Data is the buffer contents, sized to the original request.
	Data []byte

	pool  *Pool
	class int // -1 for oversized direct allocations
}

// Full returns the full-capacity slice of the underlying buffer (useful
// when a caller wants to grow into the class capacity without realloc).
func (b *Buf) Full() []byte { return b.Data[:cap(b.Data)] }

// heap is one lockable set of free lists.
type heap struct {
	mu   sync.Mutex
	free [numClasses][]*Buf
}

// Stats reports allocator activity.
type Stats struct {
	// Allocs counts Alloc calls.
	Allocs uint64
	// Frees counts Free calls.
	Frees uint64
	// Recycled counts allocations served from a free list.
	Recycled uint64
	// Oversized counts direct (non-pooled) allocations.
	Oversized uint64
	// LiveBytes is the total bytes currently allocated.
	LiveBytes int64
}

// Pool is a multi-heap, size-classed allocator. The zero value is not
// usable; construct with New.
type Pool struct {
	rt    *enclave.Runtime
	heaps []heap
	next  atomic.Uint64 // heap assignment counter (stands in for thread-id hash)

	allocs    atomic.Uint64
	frees     atomic.Uint64
	recycled  atomic.Uint64
	oversized atomic.Uint64
	liveBytes atomic.Int64

	// maxCached bounds the free-list length per class per heap so the
	// pool releases memory under shrinking load.
	maxCached int
}

// New creates a pool with the given number of heaps (0 means 8, matching
// the paper's 8 application threads), charging host-memory accounting to
// rt.
func New(rt *enclave.Runtime, heaps int) *Pool {
	if heaps <= 0 {
		heaps = 8
	}
	return &Pool{
		rt:        rt,
		heaps:     make([]heap, heaps),
		maxCached: 64,
	}
}

// Alloc returns a buffer of length n. The buffer's capacity is the size
// class's, so small growth is allocation-free.
func (p *Pool) Alloc(n int) *Buf {
	p.allocs.Add(1)
	c := classFor(n)
	if c < 0 {
		// Oversized: direct allocation, never recycled.
		p.oversized.Add(1)
		b := &Buf{Data: make([]byte, n), pool: p, class: -1}
		p.charge(n)
		return b
	}

	h := &p.heaps[p.next.Add(1)%uint64(len(p.heaps))]
	h.mu.Lock()
	if lst := h.free[c]; len(lst) > 0 {
		b := lst[len(lst)-1]
		h.free[c] = lst[:len(lst)-1]
		h.mu.Unlock()
		p.recycled.Add(1)
		b.Data = b.Data[:cap(b.Data)][:n]
		clear(b.Data)
		p.charge(classSize(c))
		return b
	}
	h.mu.Unlock()

	b := &Buf{Data: make([]byte, classSize(c))[:n], pool: p, class: c}
	p.charge(classSize(c))
	return b
}

// Free returns b to the pool. Double-frees are the caller's bug; the pool
// does not defend against them beyond clearing the slice on reuse.
func (p *Pool) Free(b *Buf) {
	if b == nil || b.pool != p {
		return
	}
	p.frees.Add(1)
	size := cap(b.Data)
	if b.class < 0 {
		size = len(b.Data)
	}
	p.discharge(size)
	if b.class < 0 {
		return // oversized buffers go to the GC
	}
	h := &p.heaps[p.next.Add(1)%uint64(len(p.heaps))]
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.free[b.class]) < p.maxCached {
		h.free[b.class] = append(h.free[b.class], b)
	}
}

// charge records an allocation of host memory with the enclave runtime.
func (p *Pool) charge(n int) {
	p.liveBytes.Add(int64(n))
	if p.rt != nil {
		p.rt.AllocHost(n)
	}
}

// discharge records a release of host memory with the enclave runtime.
func (p *Pool) discharge(n int) {
	p.liveBytes.Add(int64(-n))
	if p.rt != nil {
		p.rt.FreeHost(n)
	}
}

// Stats returns a snapshot of allocator counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Allocs:    p.allocs.Load(),
		Frees:     p.frees.Load(),
		Recycled:  p.recycled.Load(),
		Oversized: p.oversized.Load(),
		LiveBytes: p.liveBytes.Load(),
	}
}
