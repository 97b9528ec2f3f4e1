package lsm

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treaty/internal/lsm/blockcache"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/vfs"
)

// countingFile counts ReadAt calls so tests can pin exactly how many
// block reads a lookup performs.
type countingFile struct {
	vfs.File
	reads atomic.Int64
}

func (c *countingFile) ReadAt(p []byte, off int64) (int, error) {
	c.reads.Add(1)
	return c.File.ReadAt(p, off)
}

// TestGetMissingKeySingleBlockRead pins the sparse-boundary fix: a
// lookup — present, absent-in-range, or at a block boundary — reads at
// most ONE data block. handles[i].lastKey is the exact final record of
// block i, so after sort.Search lands on block i the answer is always
// within it; the old code re-read block i+1 whenever the scan ran off
// the end of block i.
func TestGetMissingKeySingleBlockRead(t *testing.T) {
	for _, level := range levelsUnderTest() {
		t.Run(level.String(), func(t *testing.T) {
			dir := t.TempDir()
			key := testKey(t)
			meta := buildTestSST(t, dir, level, key, 2000) // multiple blocks
			r, err := openSST(vfs.Default, dir, 1, level, key, nil, meta.footerHash)
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			if len(r.handles) < 3 {
				t.Fatalf("need a multi-block table, got %d blocks", len(r.handles))
			}
			// Drop the bloom filter: absent keys must reach the block
			// path for this test to pin its read count (the filter would
			// answer most of them with zero I/O).
			r.filter = nil
			cf := &countingFile{File: r.f}
			r.f = cf

			probe := func(name, userKey string, wantFound bool) {
				t.Helper()
				cf.reads.Store(0)
				_, _, _, ok, err := r.get([]byte(userKey), MaxSeq)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if ok != wantFound {
					t.Fatalf("%s: found=%v, want %v", name, ok, wantFound)
				}
				if got := cf.reads.Load(); got != 1 {
					t.Fatalf("%s: %d block reads, want exactly 1", name, got)
				}
			}
			probe("present key", "key-000700", true)
			// A key that sorts between two present keys: absent, but the
			// bloom filter cannot prove it (the lookup reaches a block).
			probe("absent in range", "key-000700a", false)
			// The exact last key of a block: the sparse-boundary case the
			// old code paid a second read for.
			lastUK, _, _ := parseIKey(r.handles[0].lastKey)
			probe("block-boundary key", string(lastUK), true)
			probe("just past a block boundary", string(lastUK)+"0", false)
		})
	}
}

// TestGetSurfacesBlockDecodeError pins the second half of the fix: a
// record that fails to decode inside a checksum-clean block must
// surface ErrSSTCorrupt. The old code recorded the error in the block
// iterator, ignored it, and silently fell through to the next block —
// swallowing the corruption.
func TestGetSurfacesBlockDecodeError(t *testing.T) {
	// Garbage whose first record claims an absurd key length: the CRC is
	// computed over the garbage itself (so verification passes — this
	// models corruption the checksum cannot see, e.g. a buggy writer),
	// and decoding fails immediately.
	garbage := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x01, 0x02, 0x03}
	fs := vfs.NewMemFS()
	if err := fs.MkdirAll("/t", 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := fs.Create("/t/blob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(garbage); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/t/blob")
	if err != nil {
		t.Fatal(err)
	}
	r := &sstReader{
		f:     f,
		level: seal.LevelNone,
		handles: []blockHandle{{
			offset:  0,
			length:  uint64(len(garbage)),
			lastKey: makeIKey([]byte("zzz"), 1, KindSet),
			crc:     crc32.ChecksumIEEE(garbage),
		}},
	}
	_, _, _, ok, gerr := r.get([]byte("aaa"), MaxSeq)
	if ok {
		t.Fatal("found a record in garbage")
	}
	if !errors.Is(gerr, ErrSSTCorrupt) {
		t.Fatalf("decode failure inside a verified block: err=%v, want ErrSSTCorrupt", gerr)
	}
}

// TestCacheHitSkipsIO: a warm lookup is served from the block cache
// with zero storage reads and the correct value.
func TestCacheHitSkipsIO(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t)
	meta := buildTestSST(t, dir, seal.LevelEncrypted, key, 1000)
	r, err := openSST(vfs.Default, dir, 1, seal.LevelEncrypted, key, nil, meta.footerHash)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	r.cache = blockcache.New(1<<20, 1, nil)
	cf := &countingFile{File: r.f}
	r.f = cf

	v1, _, _, ok, err := r.get([]byte("key-000123"), MaxSeq)
	if err != nil || !ok {
		t.Fatalf("cold get: ok=%v err=%v", ok, err)
	}
	cold := cf.reads.Load()
	if cold == 0 {
		t.Fatal("cold get did no I/O")
	}
	v2, _, _, ok, err := r.get([]byte("key-000123"), MaxSeq)
	if err != nil || !ok {
		t.Fatalf("warm get: ok=%v err=%v", ok, err)
	}
	if got := cf.reads.Load(); got != cold {
		t.Fatalf("warm get did %d extra reads, want 0", got-cold)
	}
	if string(v1) != string(v2) || string(v2) != "value-000123" {
		t.Fatalf("warm get value %q, want %q", v2, "value-000123")
	}
	if r.cache.Hits() == 0 {
		t.Fatal("no cache hit recorded")
	}
	// Scans take hits but do not fill: a full iteration must not grow
	// the cache beyond what point lookups inserted.
	before := r.cache.Bytes()
	it := r.newIterator()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("scan saw %d records", n)
	}
	if r.cache.Bytes() != before {
		t.Fatalf("iterator filled the cache: %d -> %d bytes", before, r.cache.Bytes())
	}
}

// TestCacheDBReadHeavyHitRate: at the DB level a read-heavy workload
// over flushed tables must produce a non-vacuous hit rate, and the
// conservation law hits + misses == lookups must hold.
func TestCacheDBReadHeavyHitRate(t *testing.T) {
	fs := vfs.NewMemFS()
	reg := obs.NewRegistry()
	db, err := Open(Options{
		Dir: "/db", FS: fs, Metrics: reg,
		Level: seal.LevelEncrypted, Key: faultTestKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	b := NewBatch()
	for i := 0; i < 512; i++ {
		b.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(strings.Repeat("v", 64)))
	}
	if _, _, err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 512; i++ {
			k := []byte(fmt.Sprintf("key-%04d", i))
			v, _, found, err := db.Get(k, db.LatestSeq())
			if err != nil || !found {
				t.Fatalf("get %s: found=%v err=%v", k, found, err)
			}
			if len(v) != 64 {
				t.Fatalf("get %s: %d bytes", k, len(v))
			}
		}
	}
	s := reg.Snapshot()
	lookups, hits, misses := s.Counter("lsm.cache.lookups"), s.Counter("lsm.cache.hits"), s.Counter("lsm.cache.misses")
	if hits == 0 {
		t.Fatal("read-heavy workload produced zero cache hits")
	}
	if hits+misses != lookups {
		t.Fatalf("conservation violated: %d + %d != %d", hits, misses, lookups)
	}
	if bytes, capacity := s.Gauge("lsm.cache.bytes"), s.Gauge("lsm.cache.capacity_bytes"); bytes <= 0 || bytes > capacity {
		t.Fatalf("cache bytes %d outside (0, %d]", bytes, capacity)
	}
}

// TestCacheDisabled: negative BlockCacheBytes turns caching off — no
// cache metrics movement, reads still correct.
func TestCacheDisabled(t *testing.T) {
	fs := vfs.NewMemFS()
	reg := obs.NewRegistry()
	db, err := Open(Options{Dir: "/db", FS: fs, Metrics: reg, BlockCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	b := NewBatch()
	b.Put([]byte("k"), []byte("v"))
	if _, _, err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, found, err := db.Get([]byte("k"), db.LatestSeq()); err != nil || !found {
			t.Fatalf("get: found=%v err=%v", found, err)
		}
	}
	if got := reg.Snapshot().Counter("lsm.cache.lookups"); got != 0 {
		t.Fatalf("disabled cache recorded %d lookups", got)
	}
}

// TestCacheConcurrentGetCompactionInvalidation is the -race hammer:
// concurrent point reads against a write stream sized to force constant
// flushes and compactions (and therefore constant InvalidateTable calls
// racing Get/Put on the cache). No faults are injected, so every error
// other than not-found is a real bug.
func TestCacheConcurrentGetCompactionInvalidation(t *testing.T) {
	fs := vfs.NewMemFS()
	reg := obs.NewRegistry()
	db, err := Open(Options{
		Dir: "/db", FS: fs, Metrics: reg,
		Level: seal.LevelIntegrity, Key: faultTestKey(),
		MemTableSize: 16 << 10, L0Trigger: 2, BaseLevelBytes: 64 << 10,
		BlockCacheBytes: 128 << 10, // small: eviction + invalidation churn
	})
	if err != nil {
		t.Fatal(err)
	}
	writes, reads := 240, 1500
	if testing.Short() {
		writes, reads = 80, 500
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < writes; j++ {
				b := NewBatch()
				for k := 0; k < 4; k++ {
					id := (j*4 + k) % 256
					b.Put([]byte(fmt.Sprintf("key-%03d", id)),
						[]byte(strings.Repeat(string(rune('a'+w)), 256)))
				}
				if _, _, err := db.Apply(b); err != nil {
					panic(fmt.Sprintf("writer %d: %v", w, err))
				}
			}
		}(w)
	}
	var readErr atomic.Value
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for j := 0; j < reads; j++ {
				k := []byte(fmt.Sprintf("key-%03d", rng.Intn(256)))
				v, _, found, err := db.Get(k, db.LatestSeq())
				if err != nil {
					readErr.Store(fmt.Errorf("get %s: %w", k, err))
					return
				}
				if found && len(v) != 256 {
					readErr.Store(fmt.Errorf("get %s: truncated value (%d bytes)", k, len(v)))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err, _ := readErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if err := db.BGErr(); err != nil {
		t.Fatalf("background error: %v", err)
	}
	// Compaction is asynchronous: give the background worker a window to
	// drain the L0 backlog the writers produced.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); reg.Snapshot().Counter("lsm.compactions") == 0; {
		if time.Now().After(deadline) {
			t.Fatal("hammer never compacted — workload not exercising invalidation")
		}
		db.scheduleBG()
		time.Sleep(time.Millisecond)
	}
	s := reg.Snapshot()
	if hits, misses, lookups := s.Counter("lsm.cache.hits"), s.Counter("lsm.cache.misses"), s.Counter("lsm.cache.lookups"); hits+misses != lookups {
		t.Fatalf("conservation violated: %d + %d != %d", hits, misses, lookups)
	}
	if b, c := s.Gauge("lsm.cache.bytes"), s.Gauge("lsm.cache.capacity_bytes"); b < 0 || b > c {
		t.Fatalf("cache bytes %d outside [0, %d]", b, c)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Gauge("lsm.cache.bytes"); got != 0 {
		t.Fatalf("close left %d cached bytes", got)
	}
}
