// Package crashtest is the crash-point harness: it runs a deterministic
// bank workload against a full storage stack (LSM engine, coordinator
// log, trusted counters: files, or immediate ones that give recovery no
// trusted value — Config.Immediate) on an in-memory filesystem with a
// strict crash model, captures a power-cut image after every durable
// write site the workload touches, reboots the stack from each image,
// and asserts the recovery invariants:
//
//   - every acknowledged transaction is readable after reboot;
//   - no phantom commits: the recovered state is exactly a prefix of the
//     issued history (balances match the expected state at the recovered
//     op, money is conserved);
//   - trusted counter stable values never move backwards across images;
//   - every acknowledged Clog record survives, and every recovered
//     prepared-but-undecided transaction was actually issued;
//   - every distributed transaction acknowledged as committed reads back
//     committed once the recovered in-doubt transactions are resolved
//     from the recovered Clog — including images cut while its outcome
//     record was still unstabilized, and images cut after the WAL holding
//     its prepare record was rotated out and flushed;
//   - the rebooted store accepts new writes.
//
// With PartialTails set it additionally reboots from torn images where a
// fraction of the unsynced log tail reached the platter before power
// failed, covering mid-record tears at every security level.
package crashtest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"treaty/internal/durlog"
	"treaty/internal/lsm"
	"treaty/internal/seal"
	"treaty/internal/twopc"
	"treaty/internal/vfs"
)

// Config parameterizes one harness run.
type Config struct {
	// Level is the storage security level under test.
	Level seal.SecurityLevel
	// Key is the storage master key (required above LevelNone).
	Key seal.Key
	// Ops is the number of bank transfers to issue.
	Ops int
	// PartialTails additionally reboots from torn images (0.5 and 1.0 of
	// the unsynced tail present) at every snapshot point, and from extra
	// images taken mid-append on the WAL and Clog.
	PartialTails bool
	// Immediate runs the stack on durlog's immediate counters — nothing
	// persisted, no trusted value at recovery: what a node without the
	// counter service runs — instead of on counter files, the model of an
	// ideal local trusted counter.
	Immediate bool
	// MemTableSize forces memtable flushes (default 1 KiB, small enough
	// that the workload exercises SSTable and MANIFEST write sites).
	MemTableSize int64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Result summarizes a run.
type Result struct {
	// Snapshots is the number of distinct crash images captured.
	Snapshots int
	// Replays is the number of reboots performed (≥ Snapshots).
	Replays int
	// Categories counts mutation events per durable-write-site category
	// (wal, sst, manifest, clog, ctr).
	Categories map[string]int
}

const (
	dbDir    = "/db"
	accounts = 4
	initBal  = int64(1000)
)

var ctrDir = filepath.Join(dbDir, "ctr")

// requiredCategories are the durable write sites the workload must
// demonstrably touch; missing one means the harness lost coverage.
// Immediate counters write nothing, so "ctr" is only required without them.
var requiredCategories = []string{"wal", "sst", "manifest", "clog", "ctr"}

// category buckets a mutated path by the log/file family it belongs to.
func category(name string) string {
	if filepath.Dir(name) == ctrDir {
		return "ctr"
	}
	base := filepath.Base(name)
	switch {
	case strings.HasPrefix(base, "wal-"):
		return "wal"
	case strings.HasPrefix(base, "sst-"):
		return "sst"
	case strings.HasPrefix(base, "MANIFEST"):
		return "manifest"
	case strings.HasPrefix(base, "CLOG"):
		return "clog"
	}
	return "other"
}

// bankState is the expected application state after a given op.
type bankState struct {
	bal [accounts]int64
}

// snapshot is one captured crash image plus the acknowledgment lower
// bounds sampled before the image was taken (anything acked by then must
// survive a reboot from the image).
type snapshot struct {
	fs        *vfs.MemFS
	version   uint64
	frac      float64
	event     vfs.Event
	ackedOp   uint64
	ackedClog uint64
	ackedTx   uint64
}

// recorder hooks MemFS mutation events and captures crash images.
// Acknowledgment counters are sampled BEFORE cloning: the clone's
// durable state can only be newer than the sample, so "recovered ≥
// sampled" is a sound invariant even under concurrent background work.
type recorder struct {
	fs           *vfs.MemFS
	partialTails bool

	ackedOp   atomic.Uint64
	ackedClog atomic.Uint64
	ackedTx   atomic.Uint64

	mu          sync.Mutex
	lastVersion uint64
	snaps       []*snapshot
	categories  map[string]int
	partials    int
}

// maxPartialSnaps bounds the extra torn images so runtime stays sane.
const maxPartialSnaps = 120

// hook fires on every MemFS mutation. Images are deduped by durable
// version: only events that changed the post-crash state produce a new
// frac-0 image. Write events on the WAL and Clog additionally produce
// torn images (the volatile tail changed even though the durable state
// did not).
func (r *recorder) hook(e vfs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.categories[category(e.Name)]++
	aop, aclog, atx := r.ackedOp.Load(), r.ackedClog.Load(), r.ackedTx.Load()

	clone, ver := r.fs.CloneCrashVersioned(0)
	changed := ver != r.lastVersion
	if changed {
		r.lastVersion = ver
		r.snaps = append(r.snaps, &snapshot{fs: clone, version: ver, event: e, ackedOp: aop, ackedClog: aclog, ackedTx: atx})
	}
	if !r.partialTails || r.partials >= maxPartialSnaps {
		return
	}
	cat := category(e.Name)
	tearWorthy := changed || (e.Op == "write" && (cat == "wal" || cat == "clog"))
	if !tearWorthy || r.fs.UnsyncedBytes() == 0 {
		return
	}
	for _, frac := range []float64{0.5, 1} {
		c, v := r.fs.CloneCrashVersioned(frac)
		r.snaps = append(r.snaps, &snapshot{fs: c, version: v, frac: frac, event: e, ackedOp: aop, ackedClog: aclog, ackedTx: atx})
		r.partials++
	}
}

// counters hands out one boot's per-log trusted counters: one checksummed
// file per log under dbDir/ctr, or immediate ones.
type counters struct {
	fs        vfs.FS
	immediate bool
	mu        sync.Mutex
	m         map[string]durlog.TrustedCounter
}

func newCounters(fsys vfs.FS, immediate bool) *counters {
	return &counters{fs: fsys, immediate: immediate, m: make(map[string]durlog.TrustedCounter)}
}

func (cs *counters) get(name string) durlog.TrustedCounter {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if c, ok := cs.m[name]; ok {
		return c
	}
	c := durlog.NewImmediateCounter()
	if !cs.immediate {
		var err error
		if c, err = durlog.NewFileCounter(cs.fs, filepath.Join(ctrDir, name)); err != nil {
			// Counter files are replaced atomically; a corrupt one can
			// only mean a harness or engine bug, so fail loudly.
			panic(fmt.Sprintf("crashtest: counter %s: %v", name, err))
		}
	}
	cs.m[name] = c
	return c
}

// stables samples the stable value of every counter handed out.
func (cs *counters) stables() map[string]uint64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make(map[string]uint64, len(cs.m))
	for name, c := range cs.m {
		out[name] = c.StableValue()
	}
	return out
}

// fileStables reads the stable value of every counter file in a crash
// image (none under immediate counters, which write no file).
func fileStables(fsys vfs.FS) (map[string]uint64, error) {
	out := make(map[string]uint64)
	ents, _ := fsys.ReadDir(ctrDir)
	for _, de := range ents {
		name := de.Name()
		if strings.HasSuffix(name, ".tmp") {
			continue
		}
		c, err := durlog.NewFileCounter(fsys, filepath.Join(ctrDir, name))
		if err != nil {
			return nil, fmt.Errorf("counter %s corrupt in crash image: %w", name, err)
		}
		out[name] = c.StableValue()
	}
	return out, nil
}

func acctKey(i int) []byte { return []byte(fmt.Sprintf("acct-%d", i)) }

func u64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// transferFor returns the deterministic transfer for op i (1-based).
func transferFor(i int) (from, to int, amount int64) {
	from = (i * 7) % accounts
	to = (from + 1 + i%(accounts-1)) % accounts
	amount = int64(1 + i%37)
	return
}

// expectedStates computes the bank state after each op, 0..ops.
func expectedStates(ops int) []bankState {
	out := make([]bankState, ops+1)
	for a := 0; a < accounts; a++ {
		out[0].bal[a] = initBal
	}
	for i := 1; i <= ops; i++ {
		s := out[i-1]
		from, to, amt := transferFor(i)
		s.bal[from] -= amt
		s.bal[to] += amt
		out[i] = s
	}
	return out
}

func txidFor(i int) lsm.TxID {
	var id lsm.TxID
	binary.LittleEndian.PutUint64(id[:8], 0xC0FFEE)
	binary.LittleEndian.PutUint64(id[8:], uint64(i))
	return id
}

// distTxKey is the one key distributed transaction i writes.
func distTxKey(i int) []byte { return []byte(fmt.Sprintf("p-%d", i)) }

// distTxCommits is transaction i's verdict: two commits, then an abort.
func distTxCommits(i int) bool { return (i/5)%3 != 0 }

// distTx plays distributed transaction i (every fifth op) through the
// storage stack the way the 2PC layer does: the coordinator's prepare
// record (deferred round), the participant's prepare record waited on —
// the yes-vote — then the decision, waited on only for a commit, and the
// participant's self-contained outcome record (deferred round). The
// transaction counts as acknowledged once its commit decision is stable:
// from then on every image must recover it committed. Every third
// transaction rotates and flushes between the yes-vote and the outcome,
// so the prepare record sits in a WAL whose memtable is already flushed.
func distTx(db *lsm.DB, clog *twopc.Clog, i int, ackedClog, ackedTx *atomic.Uint64) error {
	id := txidFor(i)
	parts := []string{"node-1", "node-2"}
	if _, err := clog.Append(twopc.ClogKindPrepare, id, false, parts); err != nil {
		return fmt.Errorf("op %d clog prepare: %w", i, err)
	}
	pb := lsm.NewBatch()
	pb.Put(distTxKey(i), u64(uint64(i)))
	vote, err := db.LogPrepare(id, pb)
	if err == nil {
		err = vote.Wait()
	}
	if err != nil {
		return fmt.Errorf("op %d prepare: %w", i, err)
	}
	if (i/5)%3 == 2 {
		if err := db.Flush(); err != nil {
			return fmt.Errorf("op %d flush after prepare: %w", i, err)
		}
	}
	commit := distTxCommits(i)
	decision, err := clog.Append(twopc.ClogKindDecision, id, commit, parts)
	if err == nil && commit {
		err = decision.Wait()
	}
	if err != nil {
		return fmt.Errorf("op %d clog decision: %w", i, err)
	}
	if commit {
		ackedClog.Store(decision.Value())
		ackedTx.Store(uint64(i))
	}
	if _, err := db.LogOutcome(id, commit, pb); err != nil {
		return fmt.Errorf("op %d outcome: %w", i, err)
	}
	return nil
}

// Run executes the workload, capturing crash images, then reboots from
// every image and checks the recovery invariants. It returns the first
// violated invariant as an error.
func Run(cfg Config) (Result, error) {
	res := Result{Categories: map[string]int{}}
	if cfg.Ops <= 0 {
		cfg.Ops = 24
	}
	if cfg.MemTableSize == 0 {
		cfg.MemTableSize = 1 << 10
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	fs := vfs.NewMemFS()
	if err := fs.MkdirAll(ctrDir, 0o755); err != nil {
		return res, err
	}
	rec := &recorder{fs: fs, partialTails: cfg.PartialTails, categories: map[string]int{}}
	// Hook installed before Open: store creation is itself a set of
	// durable write sites worth crashing in.
	fs.SetHook(rec.hook)

	counters := newCounters(fs, cfg.Immediate).get
	db, err := lsm.Open(lsm.Options{
		Dir:          dbDir,
		FS:           fs,
		Level:        cfg.Level,
		Key:          cfg.Key,
		Counters:     counters,
		MemTableSize: cfg.MemTableSize,
		SyncWAL:      true,
	})
	if err != nil {
		return res, fmt.Errorf("initial open: %w", err)
	}
	clogCtr := counters("CLOG-000001")
	clog, _, err := twopc.OpenClog(fs, dbDir, cfg.Level, cfg.Key, nil, clogCtr, durlog.TrustedValue(cfg.Level, clogCtr))
	if err != nil {
		return res, fmt.Errorf("initial clog open: %w", err)
	}
	// The group-commit leader forces every group before acknowledging
	// it, so a stabilized Clog value is always inside the synced prefix:
	// this run is the regression pin for the stabilize-before-durable
	// ordering bug (a false ErrRollbackDetected on power-cut images).

	expected := expectedStates(cfg.Ops)
	issued := make(map[lsm.TxID]bool)

	// Op 0 seeds the accounts and the "last" op marker in one batch.
	seed := lsm.NewBatch()
	for a := 0; a < accounts; a++ {
		seed.Put(acctKey(a), u64(uint64(expected[0].bal[a])))
	}
	seed.Put([]byte("last"), u64(0))
	if _, _, err := db.Apply(seed); err != nil {
		return res, fmt.Errorf("seed: %w", err)
	}
	rec.ackedOp.Store(1) // ackedOp is 1+opIndex so "nothing acked" is 0

	for i := 1; i <= cfg.Ops; i++ {
		from, to, _ := transferFor(i)
		b := lsm.NewBatch()
		b.Put(acctKey(from), u64(uint64(expected[i].bal[from])))
		b.Put(acctKey(to), u64(uint64(expected[i].bal[to])))
		b.Put([]byte("last"), u64(uint64(i)))
		token, _, err := db.Apply(b)
		if err != nil {
			return res, fmt.Errorf("op %d apply: %w", i, err)
		}
		if err := token.Wait(); err != nil {
			return res, fmt.Errorf("op %d stabilize: %w", i, err)
		}
		rec.ackedOp.Store(uint64(i) + 1)

		if i%5 == 0 {
			issued[txidFor(i)] = true
			if err := distTx(db, clog, i, &rec.ackedClog, &rec.ackedTx); err != nil {
				return res, err
			}
		}
		if i%7 == 0 {
			if err := db.Flush(); err != nil {
				return res, fmt.Errorf("op %d flush: %w", i, err)
			}
		}
	}

	if err := clog.Close(); err != nil {
		return res, fmt.Errorf("clog close: %w", err)
	}
	if err := db.Close(); err != nil {
		return res, fmt.Errorf("db close: %w", err)
	}
	fs.SetHook(nil)

	// Coverage: the workload must have hit every durable write family,
	// otherwise the sweep silently shrank.
	res.Categories = rec.categories
	for _, c := range requiredCategories {
		if rec.categories[c] == 0 && !(c == "ctr" && cfg.Immediate) {
			return res, fmt.Errorf("no mutation events in category %q — crash-point coverage lost (events: %v)", c, rec.categories)
		}
	}

	res.Snapshots = len(rec.snaps)
	logf("level=%d immediate=%v ops=%d: %d crash images (%d torn), events=%v",
		cfg.Level, cfg.Immediate, cfg.Ops, len(rec.snaps), rec.partials, rec.categories)

	// Reboot from every image. Snapshots are ordered by durable version
	// (the recorder serializes capture), so counter stable values must be
	// non-decreasing along the sequence.
	prevCtr := make(map[string]uint64)
	for idx, snap := range rec.snaps {
		res.Replays++
		if err := replay(cfg, snap, expected, issued, prevCtr); err != nil {
			return res, fmt.Errorf("crash image %d/%d (after %s %s, frac=%.1f, ackedOp=%d): %w",
				idx+1, len(rec.snaps), snap.event.Op, snap.event.Name, snap.frac, snap.ackedOp, err)
		}
	}
	logf("level=%d: %d reboots, all invariants held", cfg.Level, res.Replays)
	return res, nil
}

// replay reboots the stack from one crash image and checks every
// recovery invariant.
func replay(cfg Config, snap *snapshot, expected []bankState, issued map[lsm.TxID]bool, prevCtr map[string]uint64) error {
	fsys := snap.fs
	counters := newCounters(fsys, cfg.Immediate).get

	// Trusted counters must never move backwards along the image
	// sequence (a stable value regressing is exactly the rollback the
	// design must prevent). Torn images share the durable version of
	// their frac-0 sibling, so equality is allowed.
	stables, err := fileStables(fsys)
	if err != nil {
		return err
	}
	for name, v := range stables {
		if v < prevCtr[name] {
			return fmt.Errorf("counter %s went backwards: %d after %d", name, v, prevCtr[name])
		}
		if snap.frac == 0 {
			prevCtr[name] = v
		}
	}

	db, err := lsm.Open(lsm.Options{
		Dir:          dbDir,
		FS:           fsys,
		Level:        cfg.Level,
		Key:          cfg.Key,
		Counters:     counters,
		MemTableSize: cfg.MemTableSize,
		SyncWAL:      true,
	})
	if err != nil {
		return fmt.Errorf("reboot failed: %w", err)
	}
	defer db.Close()

	seq := db.LatestSeq()
	lastRaw, _, found, err := db.Get([]byte("last"), seq)
	if err != nil {
		return fmt.Errorf("reading op marker: %w", err)
	}
	if !found {
		// No committed state recovered: legal only if nothing was acked,
		// and then the accounts must be absent too (an account without
		// the marker would be a torn batch).
		if snap.ackedOp > 0 {
			return fmt.Errorf("acked state lost: op %d acknowledged but marker absent", snap.ackedOp-1)
		}
		for a := 0; a < accounts; a++ {
			if _, _, ok, gerr := db.Get(acctKey(a), seq); gerr != nil || ok {
				return fmt.Errorf("empty store has account %d (err=%v)", a, gerr)
			}
		}
	} else {
		m := binary.LittleEndian.Uint64(lastRaw)
		if m >= uint64(len(expected)) {
			return fmt.Errorf("phantom commit: recovered op %d, only %d issued", m, len(expected)-1)
		}
		if snap.ackedOp > 0 && m < snap.ackedOp-1 {
			return fmt.Errorf("acked op lost: recovered op %d < acknowledged op %d", m, snap.ackedOp-1)
		}
		var sum int64
		for a := 0; a < accounts; a++ {
			raw, _, ok, gerr := db.Get(acctKey(a), seq)
			if gerr != nil {
				return fmt.Errorf("reading account %d: %w", a, gerr)
			}
			if !ok {
				return fmt.Errorf("account %d missing at recovered op %d", a, m)
			}
			bal := int64(binary.LittleEndian.Uint64(raw))
			if bal != expected[m].bal[a] {
				return fmt.Errorf("account %d = %d at recovered op %d, want %d (not a prefix state)",
					a, bal, m, expected[m].bal[a])
			}
			sum += bal
		}
		if sum != int64(accounts)*initBal {
			return fmt.Errorf("conservation violated: sum %d, want %d", sum, int64(accounts)*initBal)
		}
	}

	// Prepared-but-undecided transactions handed to the 2PC layer must
	// all be transactions this workload actually issued.
	for _, p := range db.RecoveredPrepared() {
		if !issued[p.ID] {
			return fmt.Errorf("recovered phantom prepared transaction %x", p.ID)
		}
	}

	// The coordinator log must replay every acknowledged record.
	committed := make(map[lsm.TxID]bool)
	clogCtr := counters("CLOG-000001")
	clog, entries, err := twopc.OpenClog(fsys, dbDir, cfg.Level, cfg.Key, nil, clogCtr, durlog.TrustedValue(cfg.Level, clogCtr))
	if err != nil {
		if os.IsNotExist(err) || errors.Is(err, os.ErrNotExist) {
			if snap.ackedClog > 0 {
				return fmt.Errorf("clog gone with %d records acked", snap.ackedClog)
			}
		} else {
			return fmt.Errorf("clog reboot: %w", err)
		}
	} else {
		if uint64(len(entries)) < snap.ackedClog {
			return fmt.Errorf("clog lost acked records: %d recovered < %d acked", len(entries), snap.ackedClog)
		}
		for _, e := range entries {
			if !issued[e.TxID] {
				return fmt.Errorf("clog replayed phantom transaction %x", e.TxID)
			}
			if e.Kind == twopc.ClogKindDecision && e.Commit {
				committed[e.TxID] = true
			}
		}
		clog.Close()
	}

	// Resolve the in-doubt transactions the way ResolveRecovered does —
	// commit iff the recovered Clog holds the commit decision, presumed
	// abort otherwise — then every distributed transaction must read back
	// at its verdict: committed once acknowledged, never when it aborted.
	inDoubt := db.RecoveredPrepared()
	for _, p := range inDoubt {
		if _, err := db.LogOutcome(p.ID, committed[p.ID], p.Batch); err != nil {
			return fmt.Errorf("resolving in-doubt transaction %x: %w", p.ID, err)
		}
	}
	for i := 5; i < len(expected); i += 5 {
		raw, _, ok, err := db.Get(distTxKey(i), db.LatestSeq())
		if err != nil {
			return fmt.Errorf("reading distributed tx %d: %w", i, err)
		}
		switch {
		case ok && (!distTxCommits(i) || binary.LittleEndian.Uint64(raw) != uint64(i)):
			return fmt.Errorf("distributed tx %d (commit=%v) left value %x", i, distTxCommits(i), raw)
		case !ok && distTxCommits(i) && uint64(i) <= snap.ackedTx:
			return fmt.Errorf("acked distributed tx %d lost: not readable after resolving %d in-doubt transactions", i, len(inDoubt))
		}
	}

	// The rebooted store must accept and serve new writes.
	probe := lsm.NewBatch()
	probe.Put([]byte("probe"), u64(snap.version))
	if _, _, err := db.Apply(probe); err != nil {
		return fmt.Errorf("rebooted store rejects writes: %w", err)
	}
	raw, _, ok, err := db.Get([]byte("probe"), db.LatestSeq())
	if err != nil || !ok || binary.LittleEndian.Uint64(raw) != snap.version {
		return fmt.Errorf("probe write unreadable after reboot: ok=%v err=%v", ok, err)
	}
	if err := db.BGErr(); err != nil {
		return fmt.Errorf("background error after reboot: %w", err)
	}
	return nil
}
