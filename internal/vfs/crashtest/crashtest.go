// Package crashtest is the crash-point sweep: it runs a deterministic
// bank workload against a full storage stack (LSM engine, coordinator
// log, trusted counters: files, or immediate ones that give recovery no
// trusted value — Config.Immediate) on an in-memory filesystem with a
// strict crash model. The WAL and Clog commit groups ship — between
// force and trusted-counter stabilize, where a node's shipper sits — to a
// backup mirror on a second in-memory filesystem. The sweep captures a
// power-cut image after every durable write site on either side,
// reboots each one and asserts the invariants.
//
// Primary images, each paired with the mirror's durable state at the
// same instant:
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
//   - the rebooted store accepts new writes;
//   - stabilized ⊆ mirrored: every stabilized counter value lies inside
//     the mirror's forced prefix, because a group stabilizes only after
//     its ship was acked and the backup acks only after the mirror force.
//
// Mirror images must reopen into a verified contiguous mirror (torn
// tails dropped) that covers every group whose ack the primary had
// received when the image was cut.
//
// With PartialTails set the sweep additionally reboots from torn images
// on both sides, where a fraction of the unsynced tail reached the
// platter before power failed, covering mid-record tears at every
// security level.
package crashtest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"treaty/internal/durlog"
	"treaty/internal/lsm"
	"treaty/internal/repl"
	"treaty/internal/seal"
	"treaty/internal/twopc"
	"treaty/internal/vfs"
)

// Config parameterizes one sweep.
type Config struct {
	// Level is the storage security level under test.
	Level seal.SecurityLevel
	// Key is the storage master key (required above LevelNone); it is
	// also the network key the replication proofs derive from.
	Key seal.Key
	// Ops is the number of bank transfers to issue.
	Ops int
	// PartialTails additionally reboots from torn images (0.5 and 1.0 of
	// the unsynced tail present) at every snapshot point, and from extra
	// images taken mid-append on the WAL, the Clog and the mirror.
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

// Result summarizes a sweep.
type Result struct {
	// PrimaryImages and MirrorImages count the captured crash images on
	// each side, TornPrimary and TornMirror the torn ones among them.
	PrimaryImages, MirrorImages int
	TornPrimary, TornMirror     int
	// Replays is the number of reboots performed (one per image).
	Replays int
	// Categories counts mutation events per durable-write-site category
	// (wal, sst, manifest, clog, ctr, mirror).
	Categories map[string]int
	// ShippedGroups counts acked ship groups across both streams.
	ShippedGroups uint64
	// StableChecks counts primary images where a non-zero stable counter
	// engaged the ordering invariant (zero means it went untested).
	StableChecks int
}

const (
	dbDir     = "/db"
	backupDir = "/backup"
	// primaryID is the shipping node's id in the mirror namespace.
	primaryID = 1
	accounts  = 4
	initBal   = int64(1000)
)

var ctrDir = filepath.Join(dbDir, "ctr")

// requiredCategories are the durable write sites the workload must
// demonstrably touch; missing one means the sweep lost coverage.
// Immediate counters write nothing, so "ctr" is only required without them.
var requiredCategories = []string{"wal", "sst", "manifest", "clog", "ctr", "mirror"}

// category buckets a mutated primary path by the log/file family it
// belongs to.
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

// acks are the acknowledgment lower bounds sampled before an image is
// cut: anything acked by then must survive a reboot from the image.
type acks struct {
	op, clog, tx uint64 // op is 1+opIndex, so "nothing acked" is 0
	// walSeq and clogSeq are the last ship groups the backup acked.
	walSeq, clogSeq uint64
	// stable holds the live counters' stable values; nil when the
	// image's counter files carry them.
	stable map[string]uint64
}

// snapshot is one captured crash image of either side.
type snapshot struct {
	fs *vfs.MemFS
	// mirror is, for a primary image, the mirror's durable state at the
	// same instant; nil for a mirror image.
	mirror  *vfs.MemFS
	version uint64
	frac    float64
	event   vfs.Event
	acks
}

// side is one filesystem the recorder captures images of.
type side struct {
	fs          *vfs.MemFS
	lastVersion uint64
	snaps       []*snapshot
	torn        int
}

// recorder hooks both filesystems' mutation events and captures crash
// images. Acknowledgment counters are sampled BEFORE cloning: the
// clone's durable state can only be newer than the sample, so
// "recovered ≥ sampled" is a sound invariant even under concurrent
// background work.
type recorder struct {
	primary, mirror side
	partialTails    bool
	stables         func() map[string]uint64 // immediate counters only

	ackedOp, ackedClog, ackedTx atomic.Uint64
	walSeq, clogSeq             atomic.Uint64

	mu         sync.Mutex
	categories map[string]int
}

// maxPartialSnaps bounds the extra torn images per side so runtime stays
// sane.
const maxPartialSnaps = 120

// hook returns the event hook of one side. Images are deduped by durable
// version: only events that changed the post-crash state produce a new
// frac-0 image. Write events on the WAL, Clog and mirror additionally
// produce torn images (the volatile tail changed even though the durable
// state did not).
func (r *recorder) hook(s *side, categorize func(string) string) func(vfs.Event) {
	return func(e vfs.Event) {
		r.mu.Lock()
		defer r.mu.Unlock()
		cat := categorize(e.Name)
		r.categories[cat]++
		a := acks{
			op: r.ackedOp.Load(), clog: r.ackedClog.Load(), tx: r.ackedTx.Load(),
			walSeq: r.walSeq.Load(), clogSeq: r.clogSeq.Load(),
		}
		if r.stables != nil {
			a.stable = r.stables()
		}
		var mirror *vfs.MemFS
		if s == &r.primary {
			mirror, _ = r.mirror.fs.CloneCrashVersioned(0)
		}

		clone, ver := s.fs.CloneCrashVersioned(0)
		changed := ver != s.lastVersion
		if changed {
			s.lastVersion = ver
			s.snaps = append(s.snaps, &snapshot{fs: clone, mirror: mirror, version: ver, event: e, acks: a})
		}
		if !r.partialTails || s.torn >= maxPartialSnaps {
			return
		}
		tearWorthy := changed || (e.Op == "write" && (cat == "wal" || cat == "clog" || cat == "mirror"))
		if !tearWorthy || s.fs.UnsyncedBytes() == 0 {
			return
		}
		for _, frac := range []float64{0.5, 1} {
			c, v := s.fs.CloneCrashVersioned(frac)
			s.snaps = append(s.snaps, &snapshot{fs: c, mirror: mirror, version: v, frac: frac, event: e, acks: a})
			s.torn++
		}
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
// storage stack the way the 2PC layer does: the participant's prepare
// record waited on — the yes-vote — then the coordinator's decision,
// waited on only for a commit, and the participant's self-contained
// outcome record (deferred round). The coordinator logs no prepare-start
// record: a transaction without a stable commit decision is presumed
// aborted. The
// transaction counts as acknowledged once its commit decision is stable:
// from then on every image must recover it committed. Every third
// transaction rotates and flushes between the yes-vote and the outcome,
// so the prepare record sits in a WAL whose memtable is already flushed.
func distTx(db *lsm.DB, clog *twopc.Clog, i int, ackedClog, ackedTx *atomic.Uint64) error {
	id := txidFor(i)
	parts := []string{"node-1", "node-2"}
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

// shipTo returns the Ship hook of one stream: it replicates each group to
// backup synchronously inside the commit group, where a node's Shipper
// sits, under repl's chain rule, and publishes the last acked group in
// acked. The first refusal is kept in *errp and stops the stream.
func shipTo(backup *repl.Backup, chain *repl.Chain, acked *atomic.Uint64, errp *error) func([]durlog.Entry) {
	return func(entries []durlog.Entry) {
		if *errp != nil {
			return
		}
		req := chain.Next(entries)
		if _, err := backup.Ingest(req.Encode()); err != nil {
			*errp = fmt.Errorf("crashtest: ship stream %d group %d: %w", req.Stream, req.Seq, err)
			return
		}
		chain.Acked(req)
		acked.Store(req.Seq)
	}
}

// Run executes the workload, capturing crash images on both sides, then
// reboots every image and checks the invariants. It returns the first
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

	pfs, mfs := vfs.NewMemFS(), vfs.NewMemFS()
	if err := pfs.MkdirAll(ctrDir, 0o755); err != nil {
		return res, err
	}
	rec := &recorder{primary: side{fs: pfs}, mirror: side{fs: mfs}, partialTails: cfg.PartialTails, categories: map[string]int{}}
	ctrs := newCounters(pfs, cfg.Immediate)
	if cfg.Immediate {
		rec.stables = ctrs.stables
	}
	// Hooks installed before anything opens: store and mirror creation
	// are themselves durable write sites worth crashing in.
	pfs.SetHook(rec.hook(&rec.primary, category))
	mfs.SetHook(rec.hook(&rec.mirror, func(string) string { return "mirror" }))

	backup, err := repl.NewBackup(repl.BackupConfig{Dir: backupDir, FS: mfs, Key: cfg.Key})
	if err != nil {
		return res, fmt.Errorf("backup open: %w", err)
	}
	var walErr, clogErr error
	counters := ctrs.get
	db, err := lsm.Open(lsm.Options{
		Dir:          dbDir,
		FS:           pfs,
		Level:        cfg.Level,
		Key:          cfg.Key,
		Counters:     counters,
		MemTableSize: cfg.MemTableSize,
		Ship:         shipTo(backup, repl.NewChain(repl.StreamWAL, primaryID, cfg.Key), &rec.walSeq, &walErr),
	})
	if err != nil {
		return res, fmt.Errorf("initial open: %w", err)
	}
	clogCtr := counters("CLOG-000001")
	clog, _, err := twopc.OpenClog(pfs, dbDir, cfg.Level, cfg.Key, nil, clogCtr, durlog.TrustedValue(cfg.Level, clogCtr))
	if err != nil {
		return res, fmt.Errorf("initial clog open: %w", err)
	}
	clog.Configure(twopc.ClogTuning{Ship: shipTo(backup, repl.NewChain(repl.StreamClog, primaryID, cfg.Key), &rec.clogSeq, &clogErr)})
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
	rec.ackedOp.Store(1)

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
	pfs.SetHook(nil)
	mfs.SetHook(nil)
	if err := errors.Join(walErr, clogErr); err != nil {
		return res, err
	}
	if err := backup.Close(); err != nil {
		return res, fmt.Errorf("backup close: %w", err)
	}

	// Coverage: the workload must have hit every durable write family and
	// shipped on both streams, otherwise the sweep silently shrank.
	res.Categories = rec.categories
	for _, c := range requiredCategories {
		if rec.categories[c] == 0 && !(c == "ctr" && cfg.Immediate) {
			return res, fmt.Errorf("no mutation events in category %q — crash-point coverage lost (events: %v)", c, rec.categories)
		}
	}
	walSeq, clogSeq := rec.walSeq.Load(), rec.clogSeq.Load()
	if walSeq == 0 || clogSeq == 0 {
		return res, fmt.Errorf("vacuous sweep: wal groups=%d clog groups=%d shipped", walSeq, clogSeq)
	}
	res.ShippedGroups = walSeq + clogSeq
	res.PrimaryImages, res.TornPrimary = len(rec.primary.snaps), rec.primary.torn
	res.MirrorImages, res.TornMirror = len(rec.mirror.snaps), rec.mirror.torn
	logf("level=%d immediate=%v ops=%d: %d primary images (%d torn), %d mirror images (%d torn), %d groups shipped, events=%v",
		cfg.Level, cfg.Immediate, cfg.Ops, res.PrimaryImages, res.TornPrimary, res.MirrorImages, res.TornMirror, res.ShippedGroups, rec.categories)

	// Reboot from every primary image. Snapshots are ordered by durable
	// version (the recorder serializes capture), so counter stable values
	// must be non-decreasing along the sequence.
	prevCtr := make(map[string]uint64)
	for idx, snap := range rec.primary.snaps {
		res.Replays++
		where := func(err error) error {
			return fmt.Errorf("primary image %d/%d (after %s %s, frac=%.1f, ackedOp=%d): %w",
				idx+1, len(rec.primary.snaps), snap.event.Op, snap.event.Name, snap.frac, snap.op, err)
		}
		// Ordering check first: the reboot replay below runs live probe
		// writes on the image, which stabilize counters past the
		// crash-time values this check must read.
		engaged, mirroredClog, err := orderCheck(cfg, snap)
		if err != nil {
			return res, where(err)
		}
		if engaged {
			res.StableChecks++
		}
		if err := replay(cfg, snap, expected, issued, prevCtr, mirroredClog); err != nil {
			return res, where(err)
		}
	}
	for idx, snap := range rec.mirror.snaps {
		res.Replays++
		if err := mirrorCheck(cfg, snap); err != nil {
			return res, fmt.Errorf("mirror image %d/%d (after %s %s, frac=%.1f): %w",
				idx+1, len(rec.mirror.snaps), snap.event.Op, snap.event.Name, snap.frac, err)
		}
	}
	if res.StableChecks == 0 {
		return res, errors.New("no primary image had a non-zero stable counter — the ordering invariant went untested")
	}
	logf("level=%d immediate=%v: %d reboots, all invariants held, ordering invariant engaged on %d primary images",
		cfg.Level, cfg.Immediate, res.Replays, res.StableChecks)
	return res, nil
}

// replay reboots the stack from one crash image and checks every
// recovery invariant. mirroredClog is the paired mirror's Clog stream,
// which must agree record for record with the Clog the image replays.
func replay(cfg Config, snap *snapshot, expected []bankState, issued map[lsm.TxID]bool, prevCtr map[string]uint64, mirroredClog []twopc.ClogEntry) error {
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
		if snap.op > 0 {
			return fmt.Errorf("acked state lost: op %d acknowledged but marker absent", snap.op-1)
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
		if snap.op > 0 && m < snap.op-1 {
			return fmt.Errorf("acked op lost: recovered op %d < acknowledged op %d", m, snap.op-1)
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
			if snap.clog > 0 {
				return fmt.Errorf("clog gone with %d records acked", snap.clog)
			}
		} else {
			return fmt.Errorf("clog reboot: %w", err)
		}
	} else {
		if uint64(len(entries)) < snap.clog {
			return fmt.Errorf("clog lost acked records: %d recovered < %d acked", len(entries), snap.clog)
		}
		for _, e := range entries {
			if !issued[e.TxID] {
				return fmt.Errorf("clog replayed phantom transaction %x", e.TxID)
			}
			if e.Kind == twopc.ClogKindDecision && e.Commit {
				committed[e.TxID] = true
			}
		}
		for _, m := range mirroredClog {
			if m.Counter >= 1 && m.Counter <= uint64(len(entries)) && !reflect.DeepEqual(m, entries[m.Counter-1]) {
				return fmt.Errorf("mirrored clog record %+v differs from the replayed %+v", m, entries[m.Counter-1])
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
		case !ok && distTxCommits(i) && uint64(i) <= snap.tx:
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

// stablesOf returns every trusted counter's stable value as of a primary
// image: read from the image's counter files, or, for immediate counters,
// which leave none, as sampled from the live ones before the cut.
func stablesOf(snap *snapshot) (map[string]uint64, error) {
	if snap.stable != nil {
		return snap.stable, nil
	}
	return fileStables(snap.fs)
}

// walStables picks the WAL counters out of stables, ordered by file
// number. Per-file log codecs restart their counter at 1, so each file is
// checked against its own mirrored run.
func walStables(stables map[string]uint64) []uint64 {
	byNum := make(map[uint64]uint64)
	nums := make([]uint64, 0, len(stables))
	for name, v := range stables {
		var num uint64
		if _, err := fmt.Sscanf(name, "wal-%d.log", &num); err == nil {
			nums = append(nums, num)
			byNum[num] = v
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	out := make([]uint64, 0, len(nums))
	for _, n := range nums {
		out = append(out, byNum[n])
	}
	return out
}

// splitRuns segments mirrored entries into maximal strictly-increasing
// counter runs. Each WAL file restarts its codec counter at 1 and files
// ship strictly in order, so the runs are exactly the per-file
// replicated prefixes, oldest first.
func splitRuns(entries []durlog.Entry) [][2]uint64 {
	var runs [][2]uint64 // [first, last] counter of each run
	for _, e := range entries {
		if n := len(runs); n > 0 && e.Counter > runs[n-1][1] {
			runs[n-1][1] = e.Counter
			continue
		}
		runs = append(runs, [2]uint64{e.Counter, e.Counter})
	}
	return runs
}

// orderCheck asserts stabilized ⊆ mirrored on one primary image against
// the mirror's durable state frozen at the same instant. It reports
// whether a non-zero stable value engaged the check, and returns the
// mirror's Clog records, every one of which must decode.
func orderCheck(cfg Config, snap *snapshot) (bool, []twopc.ClogEntry, error) {
	bk, err := repl.NewBackup(repl.BackupConfig{Dir: backupDir, FS: snap.mirror, Key: cfg.Key})
	if err != nil {
		return false, nil, fmt.Errorf("paired mirror reopen: %w", err)
	}
	defer bk.Close()
	stables, err := stablesOf(snap)
	if err != nil {
		return false, nil, err
	}
	engaged := false

	// Clog: one file, one monotone counter sequence.
	mirroredClog, err := twopc.DecodeClogRecords(bk.Entries(primaryID, repl.StreamClog))
	if err != nil {
		return false, nil, fmt.Errorf("mirrored clog does not decode: %w", err)
	}
	if sClog := stables["CLOG-000001"]; sClog > 0 {
		engaged = true
		var maxC uint64
		for _, e := range mirroredClog {
			maxC = max(maxC, e.Counter)
		}
		if maxC < sClog {
			return false, nil, fmt.Errorf("clog stable counter %d outruns the forced mirror (max mirrored %d)", sClog, maxC)
		}
	}

	// WAL: every file that stabilized a value has a mirrored run (ship
	// precedes stabilize), runs and counter files are both in file
	// order, and the mirror may only be AHEAD (a newly rotated file can
	// ship before its first stabilize persists, never the other way).
	runs := splitRuns(bk.Entries(primaryID, repl.StreamWAL))
	for j, sWal := range walStables(stables) {
		if sWal == 0 {
			continue
		}
		engaged = true
		if j >= len(runs) {
			return false, nil, fmt.Errorf("wal file %d stabilized %d with only %d mirrored runs — a stabilized file never shipped", j+1, sWal, len(runs))
		}
		if last := runs[j][1]; last < sWal {
			return false, nil, fmt.Errorf("wal file %d stable counter %d outruns its forced mirror run (last mirrored %d)", j+1, sWal, last)
		}
	}
	return engaged, mirroredClog, nil
}

// mirrorCheck reopens one mirror image: it must open cleanly (torn tails
// dropped, never fatal) and still cover every group whose ack the
// primary had received when the image was cut.
func mirrorCheck(cfg Config, snap *snapshot) error {
	bk, err := repl.NewBackup(repl.BackupConfig{Dir: backupDir, FS: snap.fs, Key: cfg.Key})
	if err != nil {
		return fmt.Errorf("mirror reopen failed: %w", err)
	}
	defer bk.Close()
	for _, st := range []struct {
		stream uint8
		acked  uint64
		name   string
	}{
		{repl.StreamWAL, snap.walSeq, "wal"},
		{repl.StreamClog, snap.clogSeq, "clog"},
	} {
		if st.acked == 0 {
			continue
		}
		if seq, _, ok := bk.StreamState(primaryID, st.stream); !ok || seq < st.acked {
			return fmt.Errorf("%s mirror lost acked groups: recovered seq %d (ok=%v) < acked %d",
				st.name, seq, ok, st.acked)
		}
	}
	return nil
}
