package lsm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"treaty/internal/durlog"
	"treaty/internal/vfs"
)

// Recovery (§VI): the MANIFEST is replayed first — rebuilding the SSTable
// hierarchy and loading the per-table hashes used to verify reads — then
// all live WALs are replayed in order to restore the MemTables, and
// prepared-but-undecided transactions are collected for the 2PC layer to
// resolve with their coordinators (an outcome record lost as an
// unstabilized tail leaves its transaction in exactly that state, and its
// prepare's WAL pinned). At secure levels every log is checked
// for freshness and state continuity against its trusted counter:
//
//   - entries beyond the counter's stable value are an unstabilized tail
//     (never acknowledged) and are discarded;
//   - a log ending before the stable value means rollback-protected
//     entries are missing: ErrRollbackDetected;
//   - hash-chain or counter-sequence violations mean splicing/reordering:
//     the corresponding codec errors surface.
func (db *DB) recover() error {
	// 1. MANIFEST. Opening it drops any unstabilized or crash-torn tail
	// before edits are appended again. (A torn WAL tail needs no such fix:
	// recovery never re-appends to an old WAL, it always creates a fresh
	// one.)
	mcfg := db.manifestConfig()
	m, replayed, err := durlog.Open(mcfg, durlog.TrustedValue(mcfg.Level, mcfg.Counter))
	if err != nil {
		return err
	}
	db.manifest = m
	if replayed.Torn {
		db.corruptions.Add(1)
	}

	v := &version{}
	var logNumber, lastSeq uint64
	for _, rec := range replayed.Entries {
		e, err := decodeEdit(rec.Payload)
		if err != nil {
			return err
		}
		v.apply(e)
		if e.logNumber > logNumber {
			logNumber = e.logNumber
		}
		if e.nextFile > db.nextFile {
			db.nextFile = e.nextFile
		}
		if e.lastSeq > lastSeq {
			lastSeq = e.lastSeq
		}
	}
	db.current = v
	db.lastSeq.Store(lastSeq)

	// Verify the recovered tables exist (their content hashes are checked
	// lazily on first read against the manifest-recorded index hash).
	for lv := range v.files {
		for _, f := range v.files[lv] {
			if _, err := db.fs.Stat(sstFileName(db.opt.Dir, f.number)); err != nil {
				return fmt.Errorf("%w: sstable %06d missing", durlog.ErrRollbackDetected, f.number)
			}
		}
	}

	// 2. Live WALs, in file-number order.
	walNums, err := listWALs(db.fs, db.opt.Dir)
	if err != nil {
		return err
	}
	// Never reuse an on-disk file number, even if the manifest checkpoint
	// is stale (crash between WAL rotation and the next manifest edit).
	for _, n := range walNums {
		if n >= db.nextFile {
			db.nextFile = n + 1
		}
	}

	// The DB's one fold reads every live WAL, in order: a prepare and its
	// outcome may sit in different files.
	for _, num := range walNums {
		if num < logNumber {
			// Obsolete WAL whose memtable was flushed; it survived only
			// because its deletion had not stabilized. Remove it now.
			db.obsolete = append(db.obsolete, obsoleteFile{path: walFileName(db.opt.Dir, num)})
			continue
		}
		db.logs = append(db.logs, num)
		wcfg := db.logConfig(walFileName(db.opt.Dir, num), durlog.Hooks{})
		wal, werr := durlog.Replay(wcfg, durlog.TrustedValue(wcfg.Level, wcfg.Counter))
		if werr != nil {
			return werr
		}
		if wal.Torn {
			db.corruptions.Add(1)
		}
		db.mem = newMemTable(db.opt.Level, db.rt, db.memCipher, num)
		for _, e := range wal.Entries {
			if err := db.fold.add(e, num); err != nil {
				return err
			}
		}
		if db.mem.entries() > 0 {
			db.imm = append(db.imm, db.mem)
		} else {
			db.mem.release()
		}
	}

	// Prepared transactions without a decision must be re-initialized;
	// the 2PC layer asks their coordinators to commit or abort (§VI).
	// Each pins the WAL holding its prepare record. Every replayed outcome
	// is stable, so the decided ones pin nothing.
	db.prepared = db.fold.undecided()
	db.fold.seal()

	// 3. Fresh WAL for new writes. The minimum live log does NOT advance
	// here: the replayed WALs back memtables that are not flushed yet (and
	// may hold in-doubt prepares), so a second crash must find them again.
	// The flushes scheduled below retire them.
	if err := db.newWALLocked(db.allocFileLocked()); err != nil {
		return err
	}
	if _, err := db.logEditLocked(&versionEdit{nextFile: db.nextFile}); err != nil {
		return err
	}
	// Recovered memtables flush in the background.
	if len(db.imm) > 0 {
		defer db.scheduleBG()
	}
	return nil
}

// walFold is the one reading of a WAL stream, shared by the commit path,
// recovery and promotion: a batch, or the write set of a committing
// outcome, goes to apply; a prepare waits in pending, under the number of
// the WAL holding it, until its outcome record moves it to decided. An
// outcome always follows its prepare, so what is pending at the end of a
// stream is exactly the in-doubt set. A DB's own fold is its WAL pin
// table: the WAL holding a prepare record stays live until the
// transaction's outcome is rollback-protected, which seal records.
type walFold struct {
	apply   func(encoded []byte) error
	pending map[TxID]pendingPrepare
	// decided lists the WALs holding the prepares of transactions whose
	// outcome was logged since the last seal.
	decided []uint64
}

// pendingPrepare is a prepare record without an outcome yet.
type pendingPrepare struct {
	batch *Batch
	log   uint64
}

func newWALFold(apply func(encoded []byte) error) *walFold {
	return &walFold{apply: apply, pending: make(map[TxID]pendingPrepare)}
}

// add folds one record of WAL log.
func (f *walFold) add(e durlog.Entry, log uint64) error {
	switch e.Kind {
	case walKindBatch:
		return f.apply(e.Payload)
	case walKindPrepare:
		id, b, err := decodePrepare(e.Payload)
		if err != nil {
			return err
		}
		f.pending[id] = pendingPrepare{batch: b, log: log}
	case walKindOutcome:
		id, commit, writes, err := decodeOutcome(e.Payload)
		if err != nil {
			return err
		}
		if commit {
			if err := f.apply(writes); err != nil {
				return err
			}
		}
		if p, ok := f.pending[id]; ok {
			f.decided = append(f.decided, p.log)
			delete(f.pending, id)
		}
	default:
		return fmt.Errorf("lsm: unknown WAL record kind %d", e.Kind)
	}
	return nil
}

// seal unpins the decided transactions: the log their outcomes were
// written to is sealed, which stabilizes its whole tail.
func (f *walFold) seal() { f.decided = f.decided[:0] }

// oldestPin returns the oldest WAL a prepare record pins, or log if that
// is older.
func (f *walFold) oldestPin(log uint64) uint64 {
	for _, p := range f.pending {
		log = min(log, p.log)
	}
	for _, n := range f.decided {
		log = min(log, n)
	}
	return log
}

// undecided returns the pending prepares sorted by transaction id.
func (f *walFold) undecided() []PreparedTx {
	out := make([]PreparedTx, 0, len(f.pending))
	for id, p := range f.pending {
		out = append(out, PreparedTx{ID: id, Batch: p.batch})
	}
	sort.Slice(out, func(i, j int) bool { return string(out[i].ID[:]) < string(out[j].ID[:]) })
	return out
}

// ApplyLog replays a WAL stream recorded elsewhere — a promoted backup's
// mirror of its primary's WAL, across every file the primary rotated
// through — with recovery's fold: committed batches are committed
// through this DB's own commit path, and the prepares left without an
// outcome are returned sorted by id, as RecoveredPrepared returns them.
func (db *DB) ApplyLog(entries []durlog.Entry) ([]PreparedTx, error) {
	fold := newWALFold(func(encoded []byte) error {
		b, err := viewBatch(encoded)
		if err == nil {
			_, _, err = db.Apply(b)
		}
		return err
	})
	for _, e := range entries {
		if err := fold.add(e, 0); err != nil {
			return nil, err
		}
	}
	return fold.undecided(), nil
}

// listWALs returns the wal file numbers in dir, ascending.
func listWALs(fs vfs.FS, dir string) ([]uint64, error) {
	des, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lsm: listing dir: %w", err)
	}
	var nums []uint64
	for _, de := range des {
		name := de.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		n, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
		if perr != nil {
			continue
		}
		nums = append(nums, n)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	return nums, nil
}

// NewIterator returns a snapshot iterator over the whole database at
// readSeq (use LatestSeq for "now"). The iterator observes a consistent
// version of the table hierarchy.
func (db *DB) NewIterator(readSeq uint64) (*Iterator, error) {
	db.readGate.RLock()
	defer db.readGate.RUnlock()
	db.mu.Lock()
	mem := db.mem
	imms := append([]*memTable(nil), db.imm...)
	ver := db.current
	db.mu.Unlock()

	iters := []internalIterator{mem.newIterator()}
	for i := len(imms) - 1; i >= 0; i-- {
		iters = append(iters, imms[i].newIterator())
	}
	for lv := range ver.files {
		for _, f := range ver.files[lv] {
			r, err := db.reader(f)
			if err != nil {
				return nil, err
			}
			iters = append(iters, r.newIterator())
		}
	}
	return newIterator(newMergeIterator(iters), readSeq), nil
}
