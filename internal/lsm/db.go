package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"treaty/internal/durlog"
	"treaty/internal/enclave"
	"treaty/internal/lsm/blockcache"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/vfs"
)

// CounterFactory supplies the per-log-file trusted counters (§VI: "For
// each log file, TREATY initializes a unique trusted counter"). name is
// the log file's base name.
type CounterFactory func(name string) durlog.TrustedCounter

// Options configures a DB.
type Options struct {
	// Dir is the database directory (created if missing).
	Dir string
	// FS is the filesystem the engine writes through; nil uses the real
	// OS. Tests substitute fault-injecting or in-memory crash-simulating
	// filesystems (package vfs).
	FS vfs.FS
	// Level selects the security level (LevelNone = native RocksDB-like,
	// LevelIntegrity = Treaty w/o Enc, LevelEncrypted = Treaty w/ Enc).
	Level seal.SecurityLevel
	// Key is the storage master key (provisioned by the CAS); required
	// at LevelEncrypted.
	Key seal.Key
	// Runtime charges TEE costs; nil means native.
	Runtime *enclave.Runtime
	// Counters supplies trusted counters per log file; nil uses
	// immediate (no rollback protection — native baselines).
	Counters CounterFactory
	// MemTableSize triggers a flush when exceeded (default 4 MiB).
	MemTableSize int64
	// L0Trigger is the number of L0 files that triggers compaction
	// (default 4).
	L0Trigger int
	// BaseLevelBytes is the L1 size limit; each level below is 10×
	// (default 16 MiB).
	BaseLevelBytes int64
	// Metrics, when non-nil, exports storage metrics under "lsm.*":
	// WAL appends/syncs and sync latency, commit group sizes, memtable
	// flushes, compactions, bloom filter hit rate, and the WAL
	// appended/stable LSN gauges the soak's rollback-protection
	// invariant reads.
	Metrics *obs.Registry
	// BlockCacheBytes sizes the enclave-resident cache of verified,
	// decrypted SSTable blocks. 0 selects DefaultBlockCacheBytes;
	// negative disables caching. The cache's footprint is charged to
	// Runtime's EPC accounting, so sizing it past the EPC budget pays
	// paging penalties.
	BlockCacheBytes int64
	// Ship, when non-nil, receives every WAL commit group between its
	// force and its counter round (see durlog.Hooks.Ship); it runs with
	// the DB lock held and must not call back into this DB.
	Ship func([]ReplEntry)
}

// DefaultBlockCacheBytes is the block cache size when Options leaves it
// zero: large enough for the hot set of the paper's YCSB workloads,
// comfortably inside the 94 MiB EPC budget next to the memtables.
const DefaultBlockCacheBytes = 32 << 20

// withDefaults fills in zero fields.
func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = vfs.Default
	}
	if o.MemTableSize == 0 {
		o.MemTableSize = 4 << 20
	}
	if o.L0Trigger == 0 {
		o.L0Trigger = 4
	}
	if o.BaseLevelBytes == 0 {
		o.BaseLevelBytes = 16 << 20
	}
	if o.Counters == nil {
		// Each log name is asked for once per Open.
		o.Counters = new(durlog.ImmediateCounters).Counter
	}
	return o
}

// ErrDBClosed indicates use of a closed DB.
var ErrDBClosed = errors.New("lsm: db closed")

// TxID identifies a distributed transaction (coordinator node id ∥ tx
// sequence) in prepare/decision records.
type TxID [16]byte

// PreparedTx is a transaction found prepared but undecided during
// recovery; the 2PC layer resolves it with its coordinator (§VI).
type PreparedTx struct {
	// ID is the global transaction id.
	ID TxID
	// Batch is the prepared write set.
	Batch *Batch
}

// DB is the Treaty storage engine instance for one node.
type DB struct {
	opt Options
	rt  *enclave.Runtime
	fs  vfs.FS

	mu       sync.Mutex
	mem      *memTable
	imm      []*memTable // oldest first
	current  *version
	manifest *durlog.Log
	wal      *durlog.Log
	// logs lists the live WAL file numbers, oldest first (the last is
	// db.wal). A flush retires the prefix below the new minimum live log.
	logs []uint64
	// fold reads every WAL record this DB logs or replays into the
	// memtable, and pins WALs: the minimum live log never advances past
	// the WAL holding a prepare whose outcome is not rollback-protected,
	// so recovery always finds the yes-vote.
	fold    *walFold
	readers map[uint64]*sstReader
	// readGate orders table deletion after in-flight reads: Get and
	// NewIterator hold the read side from snapshotting db.current until
	// their tables are open, and deleteObsolete passes through the write
	// side once before unlinking — so no reader still holds a version
	// naming a file that is about to disappear.
	readGate sync.RWMutex
	// quarantined records tables whose reads failed integrity checks;
	// further reads surface the recorded ErrSSTCorrupt instead of
	// retrying the damaged file.
	quarantined map[uint64]error
	nextFile    uint64

	// bcache caches verified+decrypted block plaintext across the DB's
	// readers (nil = disabled; all its methods are nil-safe).
	bcache  *blockcache.Cache
	lastSeq atomic.Uint64
	bgErr   error

	// commits is the group-commit pipeline; staged is commitGroup's
	// scratch slice of the group's WAL entries.
	commits *durlog.Queue[*commitReq]
	staged  []durlog.Entry

	// background flush/compaction
	bgWork   chan struct{}
	bgWG     sync.WaitGroup
	bgQuit   chan struct{}
	obsolete []obsoleteFile

	// recovered 2PC state
	prepared []PreparedTx

	memCipher *seal.Cipher

	// stats
	flushes, compactions atomic.Uint64
	// corruptions counts detected storage corruption events: quarantined
	// tables and crash-torn log tails dropped at recovery. The chaos
	// soak compares it against the injected-fault counters to assert
	// detection is not silent.
	corruptions atomic.Uint64
	// quarantines counts quarantined tables; cachePurges counts the
	// cache purges performed for them. With caching enabled the two
	// must agree at quiescence (a quarantined table's cached blocks are
	// purged before the corruption error propagates): the cache law.
	quarantines atomic.Uint64
	cachePurges atomic.Uint64

	// metrics (all nil-safe no-ops when Options.Metrics is nil)
	walHooks       durlog.Hooks // WAL counters + Options.Ship, shared by every WAL file
	bloomChecks    *obs.Counter
	bloomNegatives *obs.Counter
}

// obsoleteFile is a file awaiting deletion, gated on a manifest entry's
// stabilization (§VI: old SSTables and logs are deleted only once the
// superseding entries are stabilized).
type obsoleteFile struct {
	path        string
	manifestCtr uint64
}

type commitRes struct {
	token durlog.StableToken
	seq   uint64
	err   error
}

type commitReq struct {
	kind    uint8
	payload []byte
	res     commitRes
	done    chan commitRes
}

// Open opens (or creates) a database.
func Open(opt Options) (*DB, error) {
	opt = opt.withDefaults()
	if err := opt.FS.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: creating dir: %w", err)
	}
	db := &DB{
		opt:         opt,
		rt:          opt.Runtime,
		fs:          opt.FS,
		current:     &version{},
		readers:     make(map[uint64]*sstReader),
		quarantined: make(map[uint64]error),
		bgWork:      make(chan struct{}, 1),
		bgQuit:      make(chan struct{}),
		nextFile:    1,
		walHooks:    durlog.Hooks{Ship: opt.Ship},
	}
	db.fold = newWALFold(db.applyLocked)
	if opt.BlockCacheBytes >= 0 {
		size := opt.BlockCacheBytes
		if size == 0 {
			size = DefaultBlockCacheBytes
		}
		db.bcache = blockcache.New(size, 0, opt.Runtime)
	}
	if opt.Level == seal.LevelEncrypted {
		c, err := seal.NewCipher(seal.DeriveKey(opt.Key, "memtable"))
		if err != nil {
			return nil, err
		}
		db.memCipher = c
	}

	db.registerMetrics()
	if _, err := db.fs.Stat(manifestName(opt.Dir)); errors.Is(err, os.ErrNotExist) {
		if err := db.create(); err != nil {
			return nil, err
		}
	} else {
		if err := db.recover(); err != nil {
			return nil, err
		}
	}

	db.commits = durlog.NewQueue(db.commitGroup)
	db.commits.Sizes = opt.Metrics.Histogram("lsm.commit.group_size")
	db.bgWG.Add(1)
	go db.background()
	return db, nil
}

// registerMetrics exports the storage metrics and their laws. The LSN
// gauges are evaluated at snapshot time under db.mu against the *current*
// WAL and its counter (per-file counters restart when the WAL rotates, so
// a captured pointer would go stale); the WAL law holds them to the
// rollback-protection invariant appended_lsn >= stable_lsn.
func (db *DB) registerMetrics() {
	m := db.opt.Metrics
	if m == nil {
		return
	}
	db.walHooks.Appends = m.Counter("lsm.wal.appends")
	db.walHooks.Syncs = m.Counter("lsm.wal.syncs")
	db.walHooks.SyncLatency = m.Histogram("lsm.wal.sync.latency_ns")
	db.walHooks.Demanded = m.Counter("lsm.stabilize.demanded") // shared with the MANIFEST
	db.walHooks.Deferred = m.Counter("lsm.wal.stabilize_deferred")
	db.bloomChecks = m.Counter("lsm.bloom.checks")
	db.bloomNegatives = m.Counter("lsm.bloom.negatives")
	m.CounterFunc("lsm.flushes", db.flushes.Load)
	m.CounterFunc("lsm.compactions", db.compactions.Load)
	m.CounterFunc("lsm.corruption.detected", db.corruptions.Load)
	m.CounterFunc("lsm.quarantine.tables", db.quarantines.Load)
	if db.bcache != nil {
		m.CounterFunc("lsm.cache.lookups", db.bcache.Lookups)
		m.CounterFunc("lsm.cache.hits", db.bcache.Hits)
		m.CounterFunc("lsm.cache.misses", db.bcache.Misses)
		m.CounterFunc("lsm.cache.evictions", db.bcache.Evictions)
		m.CounterFunc("lsm.cache.epc_overflow", db.bcache.EPCOverflows)
		m.CounterFunc("lsm.cache.invalidations", db.bcache.Invalidations)
		m.CounterFunc("lsm.cache.quarantine_purges", db.cachePurges.Load)
		m.GaugeFunc("lsm.cache.bytes", db.bcache.Bytes)
		m.GaugeFunc("lsm.cache.capacity_bytes", db.bcache.Capacity)
		// Every lookup resolves to exactly one of hit or miss, every
		// quarantined table purged its cached blocks before the corruption
		// error propagated, and resident bytes stay within capacity.
		m.Balance("lsm.cache", "lsm.cache.lookups", "lsm.cache.hits", "lsm.cache.misses")
		m.Balance("lsm.cache.quarantine", "lsm.quarantine.tables", "lsm.cache.quarantine_purges")
		m.AtMost("lsm.cache.bytes", "lsm.cache.bytes", "lsm.cache.capacity_bytes")
	}
	m.GaugeFunc("lsm.wal.appended_lsn", func() int64 {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.wal == nil {
			return 0
		}
		return int64(db.wal.LastCounter())
	})
	m.GaugeFunc("lsm.wal.stable_lsn", func() int64 {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.wal == nil {
			return 0
		}
		return int64(db.wal.StableValue())
	})
	m.AtMost("lsm.wal", "lsm.wal.stable_lsn", "lsm.wal.appended_lsn") // §VI: stable only past a durable append
}

// logConfig describes one of the engine's log files to durlog. Both the
// WAL and the MANIFEST force every group: a group is acknowledged (a
// commit, a prepare vote, an edit that lets a file be deleted) only once
// it is on the platter.
func (db *DB) logConfig(path string, hooks durlog.Hooks) durlog.Config {
	return durlog.Config{
		FS: db.fs, Path: path, Level: db.opt.Level, Key: db.opt.Key, Runtime: db.rt,
		Counter: db.opt.Counters(filepath.Base(path)), Force: true, Hooks: hooks,
	}
}

// manifestConfig describes the MANIFEST.
func (db *DB) manifestConfig() durlog.Config {
	return db.logConfig(manifestName(db.opt.Dir), durlog.Hooks{Demanded: db.walHooks.Demanded})
}

// create initializes a fresh database.
func (db *DB) create() error {
	m, err := durlog.Create(db.manifestConfig())
	if err != nil {
		return err
	}
	db.manifest = m
	walNum := db.allocFileLocked()
	if err := db.newWALLocked(walNum); err != nil {
		return err
	}
	_, err = db.logEditLocked(&versionEdit{logNumber: walNum, nextFile: db.nextFile})
	return err
}

// logEditLocked appends one MANIFEST edit and returns its counter value.
// Every edit demands its own trusted-counter round: file deletions are
// gated on it.
func (db *DB) logEditLocked(e *versionEdit) (uint64, error) {
	rec := [1]durlog.Entry{{Kind: 1, Payload: e.encode()}}
	err := db.manifest.Commit(rec[:], true)
	return rec[0].Counter, err
}

// allocFileLocked hands out the next file number.
func (db *DB) allocFileLocked() uint64 {
	n := db.nextFile
	db.nextFile++
	return n
}

// newWALLocked rotates in a fresh WAL and memtable for log number num.
func (db *DB) newWALLocked(num uint64) error {
	w, err := durlog.Create(db.logConfig(walFileName(db.opt.Dir, num), db.walHooks))
	if err != nil {
		return err
	}
	db.wal = w
	db.logs = append(db.logs, num)
	db.mem = newMemTable(db.opt.Level, db.rt, db.memCipher, num)
	return nil
}

// LatestSeq returns the most recent committed sequence number; use as the
// read snapshot for "read latest".
func (db *DB) LatestSeq() uint64 { return db.lastSeq.Load() }

// Stats reports engine counters.
type DBStats struct {
	// Flushes counts memtable flushes.
	Flushes uint64
	// Compactions counts level compactions.
	Compactions uint64
	// MemEntries is the mutable memtable's entry count.
	MemEntries int64
	// LevelFiles is the file count per level.
	LevelFiles [numLevels]int
}

// Stats returns a snapshot of engine statistics.
func (db *DB) Stats() DBStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := DBStats{
		Flushes:     db.flushes.Load(),
		Compactions: db.compactions.Load(),
	}
	if db.mem != nil {
		s.MemEntries = db.mem.entries()
	}
	for i, fs := range db.current.files {
		s.LevelFiles[i] = len(fs)
	}
	return s
}

// Get returns the newest value of key visible at readSeq. found=false
// with nil error means "no such key"; integrity violations return errors.
func (db *DB) Get(key []byte, readSeq uint64) (value []byte, seq uint64, found bool, err error) {
	db.readGate.RLock()
	defer db.readGate.RUnlock()
	db.mu.Lock()
	mem := db.mem
	imms := append([]*memTable(nil), db.imm...)
	ver := db.current
	db.mu.Unlock()

	// Mutable memtable first.
	if v, s, k, ok, gerr := mem.get(key, readSeq); gerr != nil {
		return nil, 0, false, gerr
	} else if ok {
		if k == KindDelete {
			return nil, 0, false, nil
		}
		return v, s, true, nil
	}
	// Immutable memtables, newest first.
	for i := len(imms) - 1; i >= 0; i-- {
		if v, s, k, ok, gerr := imms[i].get(key, readSeq); gerr != nil {
			return nil, 0, false, gerr
		} else if ok {
			if k == KindDelete {
				return nil, 0, false, nil
			}
			return v, s, true, nil
		}
	}
	// L0: files may overlap; search newest (highest number) first.
	l0 := append([]fileMeta(nil), ver.files[0]...)
	sort.Slice(l0, func(i, j int) bool { return l0[i].number > l0[j].number })
	for _, f := range l0 {
		if bytes.Compare(key, userKeyOf(f.smallest)) < 0 || bytes.Compare(key, userKeyOf(f.largest)) > 0 {
			continue
		}
		if v, s, k, ok, gerr := db.sstGet(f, key, readSeq); gerr != nil {
			return nil, 0, false, gerr
		} else if ok {
			if k == KindDelete {
				return nil, 0, false, nil
			}
			return v, s, true, nil
		}
	}
	// L1+: at most one file per level can contain the key.
	for lv := 1; lv < numLevels; lv++ {
		files := ver.files[lv]
		i := sort.Search(len(files), func(i int) bool {
			return bytes.Compare(userKeyOf(files[i].largest), key) >= 0
		})
		if i >= len(files) || bytes.Compare(key, userKeyOf(files[i].smallest)) < 0 {
			continue
		}
		if v, s, k, ok, gerr := db.sstGet(files[i], key, readSeq); gerr != nil {
			return nil, 0, false, gerr
		} else if ok {
			if k == KindDelete {
				return nil, 0, false, nil
			}
			return v, s, true, nil
		}
	}
	return nil, 0, false, nil
}

// reader returns (opening if needed) the cached reader for f, verifying
// the table against the manifest-recorded hash. Tables that previously
// failed an integrity check are quarantined: the recorded corruption
// error is surfaced without touching the file again.
func (db *DB) reader(f fileMeta) (*sstReader, error) {
	db.mu.Lock()
	if qerr, bad := db.quarantined[f.number]; bad {
		db.mu.Unlock()
		return nil, qerr
	}
	r, ok := db.readers[f.number]
	db.mu.Unlock()
	if ok {
		return r, nil
	}
	want := f.footerHash
	if db.opt.Level == seal.LevelNone {
		want = [seal.HashSize]byte{}
	}
	r, err := openSST(db.fs, db.opt.Dir, f.number, db.opt.Level, db.opt.Key, db.rt, want)
	if err != nil {
		db.noteCorruption(f.number, err)
		return nil, err
	}
	r.bloomChecks, r.bloomNegatives = db.bloomChecks, db.bloomNegatives
	r.cache = db.bcache
	db.mu.Lock()
	if existing, ok := db.readers[f.number]; ok {
		db.mu.Unlock()
		r.close()
		return existing, nil
	}
	db.readers[f.number] = r
	db.mu.Unlock()
	return r, nil
}

// noteCorruption quarantines table num when err is an integrity failure.
// The cached reader is dropped without closing (concurrent readers may
// still hold it; the handle is reclaimed at Close).
func (db *DB) noteCorruption(num uint64, err error) {
	if !errors.Is(err, ErrSSTCorrupt) {
		return
	}
	db.mu.Lock()
	fresh := false
	if _, already := db.quarantined[num]; !already {
		db.quarantined[num] = err
		db.corruptions.Add(1)
		db.quarantines.Add(1)
		delete(db.readers, num)
		fresh = true
	}
	db.mu.Unlock()
	if fresh && db.bcache != nil {
		// Purge the quarantined table's cached blocks before the error
		// propagates to the caller: once anyone has seen ErrSSTCorrupt
		// for this table, no read may be served from a stale cached
		// block of it. (noteCorruption runs before sstGet/reader return
		// the error, which gives exactly that ordering.)
		db.bcache.InvalidateTable(num)
		db.cachePurges.Add(1)
	}
}

// sstGet reads one key from table f via its cached reader, quarantining
// the table on an integrity failure.
func (db *DB) sstGet(f fileMeta, key []byte, readSeq uint64) (value []byte, seq uint64, kind RecordKind, ok bool, err error) {
	r, rerr := db.reader(f)
	if rerr != nil {
		return nil, 0, 0, false, rerr
	}
	value, seq, kind, ok, err = r.get(key, readSeq)
	if err != nil {
		db.noteCorruption(f.number, err)
	}
	return value, seq, kind, ok, err
}

// submit hands one WAL record to the group-commit leader.
func (db *DB) submit(kind uint8, payload []byte) commitRes {
	req := &commitReq{kind: kind, payload: payload, done: make(chan commitRes, 1)}
	if !db.commits.Submit(req) {
		return commitRes{err: ErrDBClosed}
	}
	return <-req.done
}

// Apply commits a batch: it is logged to the WAL (group-committed),
// applied to the memtable, and its stabilization started. The returned
// token lets callers wait for rollback protection; seq is the batch's
// first sequence number. The WAL logs b's own bytes: b must not change
// until Apply returns.
func (db *DB) Apply(b *Batch) (durlog.StableToken, uint64, error) {
	res := db.submit(walKindBatch, b.Encoded())
	return res.token, res.seq, res.err
}

// LogPrepare durably records a prepared distributed transaction's write
// set (2PC prepare phase, §V-A). The data is not applied to the memtable;
// it becomes visible only when LogOutcome records a commit. The WAL
// holding the record stays live until the transaction's outcome is
// rollback-protected.
func (db *DB) LogPrepare(id TxID, b *Batch) (durlog.StableToken, error) {
	res := db.submit(walKindPrepare, encodePrepare(id, b))
	return res.token, res.err
}

// LogOutcome resolves a prepared transaction with one self-contained
// record: on commit the write set is logged with the verdict and applied
// to the memtable, on abort writes is ignored. The record is written,
// forced and shipped like any other, but it does not demand a
// trusted-counter round — it rides the next demanded one. Losing it as an
// unstabilized tail is harmless: recovery then finds the transaction
// prepared and in doubt, and the coordinator's stabilized decision
// re-derives the same outcome (§V-A).
func (db *DB) LogOutcome(id TxID, commit bool, writes *Batch) (durlog.StableToken, error) {
	res := db.submit(walKindOutcome, encodeOutcome(id, commit, writes))
	return res.token, res.err
}

// RecoveredPrepared returns transactions found prepared-but-undecided at
// recovery; the 2PC layer must resolve them with their coordinators.
func (db *DB) RecoveredPrepared() []PreparedTx {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]PreparedTx, len(db.prepared))
	copy(out, db.prepared)
	return out
}

// commitGroup executes one commit group (§VII-B): all its WAL entries go
// through one durlog Commit, and the fold applies them to the memtable
// under the same critical section so sequence order matches log order.
// The commit path is fail-stop: a poisoned WAL is never rotated away, so
// every later group fails with its sticky error.
func (db *DB) commitGroup(group []*commitReq) {
	db.mu.Lock()
	entries, demand := db.staged[:0], false
	for _, req := range group {
		entries = append(entries, durlog.Entry{Kind: req.kind, Payload: req.payload})
		// Does any record of the group have a caller that waits on its
		// token? Outcome records never do (see LogOutcome).
		demand = demand || req.kind != walKindOutcome
	}
	err := db.wal.Commit(entries, demand)
	db.staged = entries
	for i, req := range group {
		req.res = commitRes{err: err}
		if err != nil {
			continue
		}
		req.res.token = db.wal.Token(entries[i].Counter, req.kind != walKindOutcome)
		req.res.seq = db.lastSeq.Load() + 1
		req.res.err = db.fold.add(entries[i], db.mem.logNumber)
	}
	needFlush := err == nil && db.mem.approximateSize() >= db.opt.MemTableSize
	if needFlush {
		if err := db.rotateMemTableLocked(); err != nil && db.bgErr == nil {
			db.bgErr = err
		}
	}
	db.mu.Unlock()

	if needFlush {
		db.scheduleBG()
	}
	for _, req := range group {
		req.done <- req.res
	}
}

// applyLocked inserts an encoded batch into the mutable memtable at the
// next sequence numbers: the fold's apply, live and at recovery.
func (db *DB) applyLocked(encoded []byte) error {
	seq := db.lastSeq.Load()
	err := eachRecord(encoded, func(kind RecordKind, key, value []byte) error {
		seq++
		db.mem.add(seq, kind, key, value)
		return nil
	})
	if err == nil {
		db.lastSeq.Store(seq)
	}
	return err
}

// sealWALLocked ends writing to the current WAL. Closing a log stabilizes
// its whole tail, so every outcome logged in it is rollback-protected and
// its pin can go.
func (db *DB) sealWALLocked() error {
	if err := db.wal.Close(); err != nil {
		return err
	}
	db.fold.seal()
	return nil
}

// rotateMemTableLocked moves the mutable memtable to the immutable list
// and installs a fresh WAL + memtable.
func (db *DB) rotateMemTableLocked() error {
	if err := db.sealWALLocked(); err != nil {
		return err
	}
	db.imm = append(db.imm, db.mem)
	return db.newWALLocked(db.allocFileLocked())
}

// scheduleBG pokes the background worker.
func (db *DB) scheduleBG() {
	select {
	case db.bgWork <- struct{}{}:
	default:
	}
}

// Flush forces the current memtable to disk and waits for it.
func (db *DB) Flush() error {
	db.mu.Lock()
	if db.mem.entries() > 0 {
		if err := db.rotateMemTableLocked(); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	db.mu.Unlock()
	for {
		db.mu.Lock()
		pending := len(db.imm)
		err := db.bgErr
		db.mu.Unlock()
		if err != nil {
			return err
		}
		if pending == 0 {
			return nil
		}
		db.scheduleBG()
		time.Sleep(500 * time.Microsecond)
	}
}

// background runs flushes and compactions.
func (db *DB) background() {
	defer db.bgWG.Done()
	for {
		select {
		case <-db.bgQuit:
			return
		case <-db.bgWork:
		}
		for db.doBackgroundWork() {
		}
	}
}

// doBackgroundWork performs one flush or compaction; it reports whether
// more work remains.
func (db *DB) doBackgroundWork() bool {
	db.mu.Lock()
	if len(db.imm) > 0 {
		imm := db.imm[0]
		db.mu.Unlock()
		if err := db.flushMemTable(imm); err != nil {
			db.setBGErr(err)
			return false
		}
		return true
	}
	c := db.pickCompactionLocked()
	db.mu.Unlock()
	if c != nil {
		if err := db.runCompaction(c); err != nil {
			db.setBGErr(err)
			return false
		}
		return true
	}
	db.deleteObsolete()
	return false
}

// setBGErr records a background failure.
func (db *DB) setBGErr(err error) {
	// Corruption detected inside a flush or compaction read counts like a
	// quarantine: the detected-corruption metric must cover every path
	// that can observe damaged media, not just foreground Gets.
	if errors.Is(err, ErrSSTCorrupt) {
		db.corruptions.Add(1)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.bgErr == nil {
		db.bgErr = err
	}
}

// BGErr returns any background flush/compaction error.
func (db *DB) BGErr() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.bgErr
}

// flushMemTable writes imm to a new L0 table, logs the manifest edit,
// and retires the memtable and its WAL.
func (db *DB) flushMemTable(imm *memTable) error {
	db.mu.Lock()
	num := db.allocFileLocked()
	db.mu.Unlock()

	w, err := newSSTWriter(db.fs, db.opt.Dir, num, db.opt.Level, db.opt.Key, db.rt)
	if err != nil {
		return err
	}
	it := imm.newIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		v, verr := it.Value()
		if verr != nil {
			w.abort()
			return verr
		}
		if err := w.add(it.Key(), v); err != nil {
			w.abort()
			return err
		}
	}
	var edit versionEdit
	var meta fileMeta
	if !w.empty() {
		meta, err = w.finish()
		if err != nil {
			return err
		}
		meta.level = 0
		edit.addFiles = []fileMeta{meta}
	} else {
		w.abort()
	}

	db.mu.Lock()
	// The new min live log is the next memtable's (imm[1] or mem), held
	// back by the oldest WAL that still pins a prepare record (RocksDB's
	// min-log-containing-prep rule). Everything from the min live log on
	// is kept and replayed in order at recovery.
	minLog := db.mem.logNumber
	if len(db.imm) > 1 {
		minLog = db.imm[1].logNumber
	}
	minLog = db.fold.oldestPin(minLog)
	retired := 0
	for retired < len(db.logs) && db.logs[retired] < minLog {
		retired++
	}
	edit.logNumber = minLog
	edit.nextFile = db.nextFile
	// Checkpoint only what this flush made durable in SSTables; entries
	// in newer (live) WALs are re-derived at replay.
	edit.lastSeq = imm.maxSeq
	for _, n := range db.logs[:retired] {
		edit.deletedLogs = append(edit.deletedLogs, filepath.Base(walFileName(db.opt.Dir, n)))
	}
	ctr, err := db.logEditLocked(&edit)
	if err != nil {
		db.mu.Unlock()
		return err
	}
	nv := db.current.clone()
	nv.apply(&edit)
	db.current = nv
	db.imm = db.imm[1:]
	for _, n := range db.logs[:retired] {
		db.obsolete = append(db.obsolete, obsoleteFile{path: walFileName(db.opt.Dir, n), manifestCtr: ctr})
	}
	db.logs = db.logs[retired:]
	db.flushes.Add(1)
	db.mu.Unlock()
	imm.release()
	return nil
}

// deleteObsolete removes files whose superseding manifest entries have
// stabilized (§VI: defer deletion until rollback-protected).
func (db *DB) deleteObsolete() {
	db.mu.Lock()
	stable := db.manifest.StableValue()
	var keep []obsoleteFile
	var remove []string
	for _, o := range db.obsolete {
		if o.manifestCtr <= stable {
			remove = append(remove, o.path)
		} else {
			keep = append(keep, o)
		}
	}
	db.obsolete = keep
	db.mu.Unlock()
	if len(remove) > 0 {
		db.readGate.Lock()
		db.readGate.Unlock()
	}
	for _, p := range remove {
		if db.rt != nil {
			db.rt.Syscall()
		}
		db.fs.Remove(p)
	}
}

// Abandon crash-stops the WAL (durlog.Log.Abandon); db.mu barriers on the
// group in flight.
func (db *DB) Abandon() {
	db.mu.Lock()
	db.wal.Abandon()
	db.mu.Unlock()
}

// Close flushes state and shuts the DB down.
func (db *DB) Close() error {
	if !db.commits.Close() {
		return nil
	}
	close(db.bgQuit)
	db.bgWG.Wait()

	db.mu.Lock()
	defer db.mu.Unlock()
	var firstErr error
	record := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if db.wal != nil {
		record(db.sealWALLocked())
	}
	// Checkpoint the file allocator for the next open. The sequence
	// allocator is NOT checkpointed here: live-WAL replay re-derives it
	// (a close-time lastSeq would double-count unflushed entries).
	if db.manifest != nil {
		_, err := db.logEditLocked(&versionEdit{nextFile: db.nextFile})
		record(err)
		record(db.manifest.Close())
	}
	for _, r := range db.readers {
		record(r.close())
	}
	// Drop all cached blocks and discharge their enclave accounting —
	// the runtime may outlive this DB (node restarts reuse it).
	db.bcache.Purge()
	record(db.bgErr)
	return firstErr
}
