package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"

	"treaty/internal/enclave"
	"treaty/internal/lsm/blockcache"
	"treaty/internal/mempool"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/vfs"
)

// SSTable layout (SPEICHER-style authenticated table, §V-A):
//
//	[block 0][block 1]...[index][footer]
//
// Each data block holds sorted internal-key records, encrypted as a unit
// at LevelEncrypted. The index lists, per block: the offset, stored
// length, last internal key, and the SHA-256 of the *stored* block bytes
// ("a footer with the blocks' hash values"). The footer carries the
// index's offset/length and hash plus a magic. The MANIFEST records the
// footer hash of every live table, rooting the whole hierarchy's
// integrity in the (rollback-protected) manifest.

const (
	sstMagic          = 0x54524541_54590001 // "TREATY",v1
	sstFooterLen      = 8 + 8 + seal.HashSize + 8
	targetBlockSize   = 4096
	sstRecordOverhead = 2 * binary.MaxVarintLen32
)

// Errors returned by SSTable access.
var (
	// ErrSSTCorrupt indicates structural or integrity failure in a table.
	ErrSSTCorrupt = errors.New("lsm: sstable corrupt or tampered")
)

// sstFileName builds the table path for a file number.
func sstFileName(dir string, number uint64) string {
	return filepath.Join(dir, fmt.Sprintf("sst-%06d.sst", number))
}

// blockHandle locates one stored block.
type blockHandle struct {
	offset  uint64
	length  uint64
	lastKey []byte
	hash    [seal.HashSize]byte
	// crc is the CRC32 (IEEE) of the stored block bytes. The secure
	// levels verify the SHA-256 hash instead; below LevelIntegrity the
	// CRC is the corruption check (RocksDB-style block CRCs).
	crc uint32
}

// fileMeta describes one live SSTable.
type fileMeta struct {
	number     uint64
	level      int
	size       uint64
	smallest   []byte // internal keys
	largest    []byte
	footerHash [seal.HashSize]byte // hash of the index block (integrity root)
}

// sstWriter builds one table file.
type sstWriter struct {
	f      vfs.File
	fs     vfs.FS
	dir    string
	level  seal.SecurityLevel
	ciph   *seal.Cipher
	rt     *enclave.Runtime
	number uint64

	block    []byte // accumulating plaintext block records
	nblock   int
	offset   uint64
	handles  []blockHandle
	smallest []byte
	largest  []byte
	lastKey  []byte
	bloom    bloomBuilder
}

// newSSTWriter creates a table file for writing.
func newSSTWriter(fs vfs.FS, dir string, number uint64, level seal.SecurityLevel, key seal.Key, rt *enclave.Runtime) (*sstWriter, error) {
	f, err := fs.Create(sstFileName(dir, number))
	if err != nil {
		return nil, fmt.Errorf("lsm: creating sstable: %w", err)
	}
	w := &sstWriter{f: f, fs: fs, dir: dir, level: level, rt: rt, number: number}
	if level == seal.LevelEncrypted {
		ciph, err := seal.NewCipher(seal.DeriveKey(key, fmt.Sprintf("sst/%06d", number)))
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("lsm: sstable cipher: %w", err)
		}
		w.ciph = ciph
	}
	if rt != nil {
		rt.Syscall()
	}
	return w, nil
}

// add appends a record; keys must arrive in strictly increasing
// internal-key order.
func (w *sstWriter) add(ikey, value []byte) error {
	if w.lastKey != nil && compareIKeys(ikey, w.lastKey) <= 0 {
		return fmt.Errorf("lsm: sstable keys out of order")
	}
	w.lastKey = append(w.lastKey[:0], ikey...)
	if w.smallest == nil {
		w.smallest = append([]byte(nil), ikey...)
	}
	w.largest = append(w.largest[:0], ikey...)
	w.bloom.add(userKeyOf(ikey))

	w.block = binary.AppendUvarint(w.block, uint64(len(ikey)))
	w.block = append(w.block, ikey...)
	w.block = binary.AppendUvarint(w.block, uint64(len(value)))
	w.block = append(w.block, value...)
	w.nblock++
	if len(w.block) >= targetBlockSize {
		return w.flushBlock()
	}
	return nil
}

// flushBlock seals and writes the accumulated block.
func (w *sstWriter) flushBlock() error {
	if w.nblock == 0 {
		return nil
	}
	stored := w.block
	if w.ciph != nil {
		stored = w.ciph.Seal(w.block, nil)
	}
	h := blockHandle{
		offset:  w.offset,
		length:  uint64(len(stored)),
		lastKey: append([]byte(nil), w.lastKey...),
		hash:    seal.Hash(stored),
		crc:     crc32.ChecksumIEEE(stored),
	}
	if w.rt != nil {
		w.rt.Syscall()
	}
	if _, err := w.f.Write(stored); err != nil {
		return fmt.Errorf("lsm: sstable block write: %w", err)
	}
	w.offset += uint64(len(stored))
	w.handles = append(w.handles, h)
	w.block = w.block[:0]
	w.nblock = 0
	return nil
}

// finish flushes the last block, writes index and footer, syncs, and
// returns the table's metadata.
func (w *sstWriter) finish() (fileMeta, error) {
	var meta fileMeta
	if err := w.flushBlock(); err != nil {
		return meta, err
	}
	// Index: count, then per block offset/length/keylen/key/hash/crc;
	// then the table's bloom filter (covered by the index hash).
	var idx []byte
	idx = binary.AppendUvarint(idx, uint64(len(w.handles)))
	for _, h := range w.handles {
		idx = binary.AppendUvarint(idx, h.offset)
		idx = binary.AppendUvarint(idx, h.length)
		idx = binary.AppendUvarint(idx, uint64(len(h.lastKey)))
		idx = append(idx, h.lastKey...)
		idx = append(idx, h.hash[:]...)
		idx = binary.LittleEndian.AppendUint32(idx, h.crc)
	}
	filter := w.bloom.build()
	idx = binary.AppendUvarint(idx, uint64(len(filter)))
	idx = append(idx, filter...)
	idxStored := idx
	if w.ciph != nil {
		idxStored = w.ciph.Seal(idx, nil)
	}
	idxHash := seal.Hash(idxStored)

	footer := make([]byte, sstFooterLen)
	binary.LittleEndian.PutUint64(footer[0:], w.offset)
	binary.LittleEndian.PutUint64(footer[8:], uint64(len(idxStored)))
	copy(footer[16:], idxHash[:])
	binary.LittleEndian.PutUint64(footer[16+seal.HashSize:], sstMagic)

	if w.rt != nil {
		w.rt.Syscalls(2)
	}
	if _, err := w.f.Write(idxStored); err != nil {
		return meta, fmt.Errorf("lsm: sstable index write: %w", err)
	}
	if _, err := w.f.Write(footer); err != nil {
		return meta, fmt.Errorf("lsm: sstable footer write: %w", err)
	}
	if w.rt != nil {
		w.rt.Syscall()
	}
	if err := w.f.Sync(); err != nil {
		return meta, fmt.Errorf("lsm: sstable sync: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return meta, fmt.Errorf("lsm: sstable close: %w", err)
	}
	// Make the table's directory entry durable before the manifest edit
	// that references it can be written: a post-crash recovery must never
	// see a manifest pointing at a missing file.
	if err := w.fs.SyncDir(w.dir); err != nil {
		return meta, fmt.Errorf("lsm: syncing dir after sstable: %w", err)
	}
	meta = fileMeta{
		number:     w.number,
		size:       w.offset + uint64(len(idxStored)) + sstFooterLen,
		smallest:   w.smallest,
		largest:    w.largest,
		footerHash: idxHash,
	}
	return meta, nil
}

// entryCount returns the records added so far plus buffered.
func (w *sstWriter) empty() bool { return w.nblock == 0 && len(w.handles) == 0 }

// abort removes a partially written table.
func (w *sstWriter) abort() {
	w.f.Close()
	w.fs.Remove(sstFileName(w.dir, w.number))
}

// sstReader reads one table with integrity verification. Readers verify
// the index against the manifest-recorded hash at open, and every block
// against the index hash on access, inside the enclave.
type sstReader struct {
	f       vfs.File
	level   seal.SecurityLevel
	ciph    *seal.Cipher
	rt      *enclave.Runtime
	number  uint64
	handles []blockHandle
	filter  []byte

	// bloom hit-rate counters, shared across the DB's readers (set by
	// db.reader; nil-safe no-ops when metrics are off).
	bloomChecks    *obs.Counter
	bloomNegatives *obs.Counter

	// cache holds verified+decrypted block plaintext, shared across the
	// DB's readers (set by db.reader; nil = caching disabled, and every
	// method on it is nil-safe).
	cache *blockcache.Cache
	// pool recycles the ciphertext staging buffer of readBlock (set by
	// db.reader; nil = plain allocations).
	pool *mempool.Pool
}

// openSST opens a table and verifies its index against wantHash (from the
// MANIFEST). A zero wantHash skips the check (native mode).
func openSST(fs vfs.FS, dir string, number uint64, level seal.SecurityLevel, key seal.Key, rt *enclave.Runtime, wantHash [seal.HashSize]byte) (*sstReader, error) {
	f, err := fs.Open(sstFileName(dir, number))
	if err != nil {
		return nil, fmt.Errorf("lsm: opening sstable: %w", err)
	}
	r := &sstReader{f: f, level: level, rt: rt, number: number}
	if level == seal.LevelEncrypted {
		ciph, cerr := seal.NewCipher(seal.DeriveKey(key, fmt.Sprintf("sst/%06d", number)))
		if cerr != nil {
			f.Close()
			return nil, cerr
		}
		r.ciph = ciph
	}
	if err := r.readIndex(wantHash); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// readIndex loads and verifies the footer and index.
func (r *sstReader) readIndex(wantHash [seal.HashSize]byte) error {
	if r.rt != nil {
		r.rt.Syscalls(2)
	}
	st, err := r.f.Stat()
	if err != nil {
		return fmt.Errorf("lsm: sstable stat: %w", err)
	}
	if st.Size() < sstFooterLen {
		return fmt.Errorf("%w: too small", ErrSSTCorrupt)
	}
	footer := make([]byte, sstFooterLen)
	if _, err := r.f.ReadAt(footer, st.Size()-sstFooterLen); err != nil {
		return fmt.Errorf("lsm: sstable footer read: %w", err)
	}
	if binary.LittleEndian.Uint64(footer[16+seal.HashSize:]) != sstMagic {
		return fmt.Errorf("%w: bad magic", ErrSSTCorrupt)
	}
	idxOff := binary.LittleEndian.Uint64(footer[0:])
	idxLen := binary.LittleEndian.Uint64(footer[8:])
	var idxHash [seal.HashSize]byte
	copy(idxHash[:], footer[16:])
	if idxOff+idxLen+sstFooterLen != uint64(st.Size()) {
		return fmt.Errorf("%w: inconsistent footer", ErrSSTCorrupt)
	}

	idxStored := make([]byte, idxLen)
	if r.rt != nil {
		r.rt.Syscall()
	}
	if _, err := r.f.ReadAt(idxStored, int64(idxOff)); err != nil {
		return fmt.Errorf("lsm: sstable index read: %w", err)
	}
	if seal.Hash(idxStored) != idxHash {
		return fmt.Errorf("%w: index hash mismatch", ErrSSTCorrupt)
	}
	if wantHash != ([seal.HashSize]byte{}) && idxHash != wantHash {
		// The file's self-consistent index does not match what the
		// MANIFEST recorded: the whole table was substituted.
		return fmt.Errorf("%w: table %06d does not match manifest", ErrSSTCorrupt, r.number)
	}
	idx := idxStored
	if r.ciph != nil {
		plain, derr := r.ciph.Open(idxStored, nil)
		if derr != nil {
			return fmt.Errorf("%w: index decrypt", ErrSSTCorrupt)
		}
		idx = plain
	}

	// Parse the index.
	off := 0
	n, c := binary.Uvarint(idx[off:])
	if c <= 0 {
		return fmt.Errorf("%w: index count", ErrSSTCorrupt)
	}
	off += c
	handles := make([]blockHandle, 0, n)
	for i := uint64(0); i < n; i++ {
		var h blockHandle
		v, c := binary.Uvarint(idx[off:])
		if c <= 0 {
			return fmt.Errorf("%w: index entry", ErrSSTCorrupt)
		}
		h.offset = v
		off += c
		v, c = binary.Uvarint(idx[off:])
		if c <= 0 {
			return fmt.Errorf("%w: index entry", ErrSSTCorrupt)
		}
		h.length = v
		off += c
		klen, c := binary.Uvarint(idx[off:])
		if c <= 0 || off+c+int(klen)+seal.HashSize+4 > len(idx) {
			return fmt.Errorf("%w: index entry", ErrSSTCorrupt)
		}
		off += c
		h.lastKey = append([]byte(nil), idx[off:off+int(klen)]...)
		off += int(klen)
		copy(h.hash[:], idx[off:])
		off += seal.HashSize
		h.crc = binary.LittleEndian.Uint32(idx[off:])
		off += 4
		handles = append(handles, h)
	}
	r.handles = handles
	// Bloom filter (present in every table this engine writes).
	if off < len(idx) {
		flen, c := binary.Uvarint(idx[off:])
		if c <= 0 || off+c+int(flen) > len(idx) {
			return fmt.Errorf("%w: filter block", ErrSSTCorrupt)
		}
		off += c
		r.filter = append([]byte(nil), idx[off:off+int(flen)]...)
	}
	return nil
}

// readBlock loads, verifies, and decrypts block i from storage. The
// returned slice is freshly owned by the caller and never aliases the
// (recycled) staging buffer. For the cached path use block().
func (r *sstReader) readBlock(i int) ([]byte, error) {
	h := r.handles[i]
	// The on-disk bytes are untrusted media: stage them in a pooled
	// host-region buffer (ciphertext / unverified data needs no EPC
	// residency) instead of a fresh allocation per read.
	var staged *mempool.Buf
	var stored []byte
	if r.pool != nil {
		staged = r.pool.Alloc(int(h.length))
		stored = staged.Data
	} else {
		stored = make([]byte, h.length)
	}
	release := func() {
		if staged != nil {
			r.pool.Free(staged)
		}
	}
	if r.rt != nil {
		r.rt.Syscall()
	}
	if _, err := r.f.ReadAt(stored, int64(h.offset)); err != nil {
		release()
		return nil, fmt.Errorf("lsm: sstable block read: %w", err)
	}
	if r.level >= seal.LevelIntegrity {
		if seal.Hash(stored) != h.hash {
			release()
			return nil, fmt.Errorf("%w: block %d hash mismatch", ErrSSTCorrupt, i)
		}
	} else {
		// Native mode verifies the per-block CRC carried in the index,
		// mirroring RocksDB block checksums: corruption is detected, but
		// (unlike the secure levels) a forger who can rewrite the index
		// is not defended against.
		if crc32.ChecksumIEEE(stored) != h.crc {
			release()
			return nil, fmt.Errorf("%w: block %d crc mismatch", ErrSSTCorrupt, i)
		}
	}
	if r.ciph != nil {
		plain, err := r.ciph.Open(stored, nil)
		release()
		if err != nil {
			return nil, fmt.Errorf("%w: block %d decrypt", ErrSSTCorrupt, i)
		}
		return plain, nil
	}
	if staged != nil {
		// The staging buffer goes back to the pool: hand out a stable copy.
		plain := append([]byte(nil), stored...)
		release()
		return plain, nil
	}
	return stored, nil
}

// block returns the verified plaintext of block i, consulting the block
// cache first. fill controls insertion on miss: the point-lookup path
// fills (its reuse distance is what the cache exists for), while the
// scan paths (iterators, compaction) only take hits — a sequential scan
// would otherwise wipe the cache's working set and churn EPC accounting
// for blocks read exactly once. The returned slice is shared and
// immutable when it came from (or was inserted into) the cache: callers
// must treat it as read-only.
func (r *sstReader) block(i int, fill bool) ([]byte, error) {
	if data, ok := r.cache.Get(r.number, i); ok {
		return data, nil
	}
	data, err := r.readBlock(i)
	if err != nil {
		return nil, err
	}
	if fill {
		// Insert only after hash/CRC verification and decryption have
		// succeeded (readBlock returned): the cache holds authenticated
		// plaintext only. Put takes ownership; data is never written
		// after this point (blockIter and get only read it).
		r.cache.Put(r.number, i, data)
	}
	return data, nil
}

// get looks up the newest record with user key == userKey and seq <=
// readSeq in this table.
func (r *sstReader) get(userKey []byte, readSeq uint64) (value []byte, seq uint64, kind RecordKind, ok bool, err error) {
	if r.filter != nil {
		r.bloomChecks.Inc()
		if !bloomMayContain(r.filter, userKey) {
			r.bloomNegatives.Inc()
			return nil, 0, 0, false, nil // definitive negative, no I/O
		}
	}
	target := makeIKey(userKey, readSeq, RecordKind(0xFF))
	// Find the first block whose lastKey >= target.
	i := sort.Search(len(r.handles), func(i int) bool {
		return compareIKeys(r.handles[i].lastKey, target) >= 0
	})
	if i >= len(r.handles) {
		return nil, 0, 0, false, nil
	}
	block, err := r.block(i, true)
	if err != nil {
		return nil, 0, 0, false, err
	}
	var it blockIter
	it.reset(block)
	for it.next() {
		if compareIKeys(it.ikey, target) < 0 {
			continue
		}
		uk, s, k := parseIKey(it.ikey)
		if !bytes.Equal(uk, userKey) {
			return nil, 0, 0, false, nil
		}
		return append([]byte(nil), it.value...), s, k, true, nil
	}
	if it.err != nil {
		// The block passed its hash/CRC check but a record failed to
		// decode: structural corruption inside a verified block. Surface
		// it — the earlier code swallowed iterator errors here and went
		// on to read the next block.
		return nil, 0, 0, false, fmt.Errorf("%w: block %d record decode", ErrSSTCorrupt, i)
	}
	// A clean scan cannot end here without having seen a record >= target:
	// handles[i].lastKey is the exact internal key of block i's final
	// record, and sort.Search established lastKey >= target, so the final
	// record itself satisfies the comparison. (The earlier code read block
	// i+1 here "for sparse keys" — an unreachable case that cost a second
	// block read exactly when the block was corrupt.)
	return nil, 0, 0, false, nil
}

// close releases the reader.
func (r *sstReader) close() error { return r.f.Close() }

// blockIter walks one decoded block's records. It never mutates the
// block bytes, so it is safe over a shared cached block. The zero value
// is an exhausted iterator; reset() re-aims an existing one at a new
// block without allocating (the hot paths keep one per lookup/scan).
type blockIter struct {
	data  []byte
	off   int
	ikey  []byte
	value []byte
	err   error
}

// reset re-points the iterator at block, clearing all state.
func (it *blockIter) reset(block []byte) { *it = blockIter{data: block} }

// next advances to the next record; it returns false at the end or on a
// decode error (recorded in err).
func (it *blockIter) next() bool {
	if it.off >= len(it.data) {
		return false
	}
	klen, c := binary.Uvarint(it.data[it.off:])
	if c <= 0 || it.off+c+int(klen) > len(it.data) {
		it.err = ErrSSTCorrupt
		return false
	}
	it.off += c
	it.ikey = it.data[it.off : it.off+int(klen)]
	it.off += int(klen)
	vlen, c := binary.Uvarint(it.data[it.off:])
	if c <= 0 || it.off+c+int(vlen) > len(it.data) {
		it.err = ErrSSTCorrupt
		return false
	}
	it.off += c
	it.value = it.data[it.off : it.off+int(vlen)]
	it.off += int(vlen)
	return true
}

// sstIterator iterates a whole table in internal-key order. Scans read
// through the cache (hits allowed) but never fill it — see block().
type sstIterator struct {
	r     *sstReader
	block int
	it    blockIter
	valid bool
	err   error
}

// newIterator returns an iterator over the table.
func (r *sstReader) newIterator() *sstIterator {
	return &sstIterator{r: r, block: -1}
}

// SeekToFirst implements internalIterator.
func (it *sstIterator) SeekToFirst() {
	it.block = -1
	it.it.reset(nil)
	it.valid = false
	it.err = nil
	it.advanceBlock()
}

// advanceBlock loads the next block and positions at its first record.
func (it *sstIterator) advanceBlock() {
	for {
		it.block++
		if it.block >= len(it.r.handles) {
			it.valid = false
			return
		}
		data, err := it.r.block(it.block, false)
		if err != nil {
			it.err = err
			it.valid = false
			return
		}
		it.it.reset(data)
		if it.it.next() {
			it.valid = true
			return
		}
	}
}

// Valid implements internalIterator.
func (it *sstIterator) Valid() bool { return it.valid }

// Next implements internalIterator.
func (it *sstIterator) Next() {
	if !it.valid {
		return
	}
	if it.it.next() {
		return
	}
	it.advanceBlock()
}

// Key implements internalIterator.
func (it *sstIterator) Key() []byte { return it.it.ikey }

// Value implements internalIterator.
func (it *sstIterator) Value() ([]byte, error) { return it.it.value, nil }

// Err returns any I/O or integrity error hit during iteration.
func (it *sstIterator) Err() error {
	if it.err != nil {
		return it.err
	}
	return it.it.err
}
