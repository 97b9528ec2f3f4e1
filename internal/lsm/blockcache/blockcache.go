// Package blockcache is the enclave-resident cache of verified,
// decrypted SSTable block plaintext. Every block enters the cache only
// AFTER its integrity check (hash chain or CRC) and decryption have
// succeeded, so a hit skips the simulated async syscall, the
// re-verification, and the re-decryption that an uncached read pays on
// each lookup — the dominant read-path cost at the SCONE+encryption
// level.
//
// Security model: cached plaintext lives in enclave-modelled memory.
// Every insert charges the enclave runtime's EPC accounting
// (Runtime.AllocEnclave), so a cache sized past the EPC budget pays the
// existing paging-penalty cost model — the capacity/performance
// tradeoff stays honest rather than assuming free trusted memory.
//
// Concurrency: the cache is sharded by key hash with one mutex per
// shard. Cached blocks are immutable — callers receive the shared
// slice and must only read it (the SSTable iterators never mutate
// block bytes) — so a hit is a map lookup plus a ref-bit store under
// one short critical section.
//
// Replacement is CLOCK (second chance): each shard keeps its entries
// on a ring with a sweep hand; a hit sets the entry's ref bit, and
// eviction clears ref bits until it finds a cold entry. One full
// sweep degenerates to FIFO, so the sweep always terminates.
package blockcache

import (
	"sync"
	"sync/atomic"

	"treaty/internal/enclave"
)

// defaultShards balances contention against invalidation scan cost.
const defaultShards = 8

// minShardBytes keeps tiny caches from being sliced into shards too
// small to hold even a handful of ~4 KiB blocks.
const minShardBytes = 64 << 10

// ckey identifies one cached block. Table numbers are monotonic and
// never reused (see lsm manifest), so a key uniquely names the block's
// contents forever.
type ckey struct {
	table uint64
	block uint32
}

// entry is one cached block. data is immutable once published.
type entry struct {
	k    ckey
	data []byte
	ref  bool
}

// shard is one lock domain: an index into a CLOCK ring.
type shard struct {
	mu    sync.Mutex
	index map[ckey]int // key → ring position
	ring  []*entry
	hand  int
	bytes int64 // resident payload bytes in this shard
}

// Cache is a sharded CLOCK cache of decrypted SSTable blocks. All
// methods are safe for concurrent use and nil-safe (a nil *Cache
// behaves as an always-miss cache), so callers need no enabled checks
// on the hot path.
type Cache struct {
	rt       *enclave.Runtime
	shards   []shard
	capacity int64
	shardCap int64

	lookups       atomic.Uint64
	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	epcOverflows  atomic.Uint64
	invalidations atomic.Uint64
	bytes         atomic.Int64
}

// New builds a cache holding up to capacity payload bytes, charging
// enclave memory accounting to rt (nil rt: no accounting — tests).
// nshards <= 0 selects a default. Returns nil when capacity <= 0
// (caching disabled).
func New(capacity int64, nshards int, rt *enclave.Runtime) *Cache {
	if capacity <= 0 {
		return nil
	}
	if nshards <= 0 {
		nshards = defaultShards
	}
	for nshards > 1 && capacity/int64(nshards) < minShardBytes {
		nshards /= 2
	}
	c := &Cache{
		rt:       rt,
		shards:   make([]shard, nshards),
		capacity: capacity,
		shardCap: capacity / int64(nshards),
	}
	for i := range c.shards {
		c.shards[i].index = make(map[ckey]int)
	}
	return c
}

// shardFor hashes k onto its shard (fibonacci mix; block index spread
// matters because one hot table's blocks should not share a lock).
func (c *Cache) shardFor(k ckey) *shard {
	h := k.table*0x9E3779B97F4A7C15 + uint64(k.block)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return &c.shards[h%uint64(len(c.shards))]
}

// Get returns the cached plaintext of (table, block) and whether it was
// present. The returned slice is shared and immutable: read-only.
func (c *Cache) Get(table uint64, block int) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.lookups.Add(1)
	k := ckey{table: table, block: uint32(block)}
	s := c.shardFor(k)
	s.mu.Lock()
	i, ok := s.index[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	e := s.ring[i]
	e.ref = true
	data := e.data
	s.mu.Unlock()
	c.hits.Add(1)
	// Touching enclave-resident data while the footprint is past the
	// EPC budget models working-set paging on the hit path too — an
	// oversized cache is not free just because it hits.
	if c.rt != nil {
		c.rt.TouchEnclave(len(data))
	}
	return data, true
}

// Put inserts the plaintext of (table, block), taking ownership of
// data — the caller must hand in a slice that will never be written
// again (the lsm read path inserts a dedicated copy). Blocks larger
// than a shard's budget are not cached. If the block is already
// present (racing readers), the existing entry wins and data is
// dropped.
func (c *Cache) Put(table uint64, block int, data []byte) {
	if c == nil || len(data) == 0 {
		return
	}
	n := int64(len(data))
	if n > c.shardCap {
		return
	}
	k := ckey{table: table, block: uint32(block)}
	s := c.shardFor(k)

	s.mu.Lock()
	if _, ok := s.index[k]; ok {
		s.mu.Unlock()
		return
	}
	var evictedBytes int64
	var evicted uint64
	for s.bytes-evictedBytes+n > c.shardCap && len(s.ring) > 0 {
		e := s.ring[s.hand]
		if e.ref {
			// Second chance: clear and advance. Each entry's ref bit
			// can be cleared at most once per sweep, so this loop
			// strictly progresses toward an eviction.
			e.ref = false
			s.hand = (s.hand + 1) % len(s.ring)
			continue
		}
		evictedBytes += int64(len(e.data))
		evicted++
		s.removeAt(s.hand)
	}
	s.bytes -= evictedBytes
	// Insert with the ref bit set: a brand-new block gets one sweep of
	// grace before it is eviction-eligible.
	s.index[k] = len(s.ring)
	s.ring = append(s.ring, &entry{k: k, data: data, ref: true})
	s.bytes += n
	s.mu.Unlock()

	c.bytes.Add(n - evictedBytes)
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
	// EPC accounting outside the shard lock: AllocEnclave may spin
	// (paging penalty) and must not serialize the shard.
	if c.rt != nil {
		if evictedBytes > 0 {
			c.rt.FreeEnclave(int(evictedBytes))
		}
		c.rt.AllocEnclave(int(n))
		if c.rt.Secure() && c.rt.Stats().EnclaveBytes > c.rt.EPCBudget() {
			c.epcOverflows.Add(1)
		}
	}
}

// removeAt unlinks ring position i (swap-with-last). The caller holds
// s.mu and settles s.bytes itself.
func (s *shard) removeAt(i int) {
	e := s.ring[i]
	delete(s.index, e.k)
	last := len(s.ring) - 1
	if i != last {
		s.ring[i] = s.ring[last]
		s.index[s.ring[i].k] = i
	}
	s.ring[last] = nil
	s.ring = s.ring[:last]
	if s.hand >= len(s.ring) {
		s.hand = 0
	}
}

// InvalidateTable removes every cached block of table and discharges
// its enclave memory. Called when a table is deleted after compaction
// and when it is quarantined on corruption — in the quarantine case
// the purge must complete before the corruption error is returned to
// the caller, so a stale cached block can never serve reads for a
// quarantined table.
func (c *Cache) InvalidateTable(table uint64) {
	if c == nil {
		return
	}
	c.invalidations.Add(1)
	var freed int64
	for si := range c.shards {
		s := &c.shards[si]
		s.mu.Lock()
		for i := 0; i < len(s.ring); {
			if s.ring[i].k.table == table {
				n := int64(len(s.ring[i].data))
				s.removeAt(i) // swaps the last entry into i: re-examine i
				s.bytes -= n
				freed += n
				continue
			}
			i++
		}
		s.mu.Unlock()
	}
	if freed > 0 {
		c.bytes.Add(-freed)
		if c.rt != nil {
			c.rt.FreeEnclave(int(freed))
		}
	}
}

// Purge empties the cache and discharges all enclave memory (DB close).
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	var freed int64
	for si := range c.shards {
		s := &c.shards[si]
		s.mu.Lock()
		freed += s.bytes
		s.bytes = 0
		s.ring = nil
		s.hand = 0
		s.index = make(map[ckey]int)
		s.mu.Unlock()
	}
	if freed > 0 {
		c.bytes.Add(-freed)
		if c.rt != nil {
			c.rt.FreeEnclave(int(freed))
		}
	}
}

// The stats accessors are shaped for obs.Registry's CounterFunc /
// GaugeFunc (method values register directly). All are nil-safe.

// Lookups counts Get calls. Invariant: Lookups == Hits + Misses at
// quiescence (lsm's cache law).
func (c *Cache) Lookups() uint64 {
	if c == nil {
		return 0
	}
	return c.lookups.Load()
}

// Hits counts Gets served from cache.
func (c *Cache) Hits() uint64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

// Misses counts Gets that fell through to storage.
func (c *Cache) Misses() uint64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}

// Evictions counts blocks displaced by capacity pressure.
func (c *Cache) Evictions() uint64 {
	if c == nil {
		return 0
	}
	return c.evictions.Load()
}

// EPCOverflows counts inserts that left the enclave footprint past the
// EPC budget (each such insert paid paging penalties).
func (c *Cache) EPCOverflows() uint64 {
	if c == nil {
		return 0
	}
	return c.epcOverflows.Load()
}

// Invalidations counts whole-table purges (compaction + quarantine).
func (c *Cache) Invalidations() uint64 {
	if c == nil {
		return 0
	}
	return c.invalidations.Load()
}

// Bytes is the resident payload footprint. Invariant: 0 <= Bytes <=
// Capacity at quiescence.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	return c.bytes.Load()
}

// Capacity is the configured payload budget (0 for a nil cache).
func (c *Cache) Capacity() int64 {
	if c == nil {
		return 0
	}
	return c.capacity
}
