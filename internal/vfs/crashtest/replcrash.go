package crashtest

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"treaty/internal/durlog"
	"treaty/internal/lsm"
	"treaty/internal/repl"
	"treaty/internal/seal"
	"treaty/internal/twopc"
	"treaty/internal/vfs"
)

// Replication crash sweep: the same deterministic bank workload runs on
// a primary whose WAL and Clog commit groups are shipped — between
// fsync and trusted-counter stabilize, exactly where a node's shipper
// sits — to a backup mirror on a second in-memory filesystem. Power-cut
// images are captured on BOTH sides around every ship/ack/stabilize
// site and rebooted:
//
//   - primary images (paired with the backup's durable state at the
//     same instant) must satisfy every single-node recovery invariant
//     AND the replication ordering invariant: any stabilized counter
//     value lies inside the backup's replicated-and-synced prefix,
//     because a group only stabilizes after its ship was acked and an
//     ack is only sent after the mirror fsync;
//   - backup images must reboot into a verified contiguous mirror
//     (torn tails truncated) that still covers every group whose ack
//     the primary had already received when the image was cut.

// replPrimaryID is the shipping node's id in the mirror namespace.
const replPrimaryID = 1

var backupDir = "/backup"

// ReplResult summarizes a replication crash sweep.
type ReplResult struct {
	// PrimaryImages and BackupImages count the captured power-cut
	// images on each side; Replays counts reboots (one per image).
	PrimaryImages, BackupImages, Replays int
	// ShippedGroups counts acked ship groups across both streams.
	ShippedGroups uint64
	// StableChecks counts primary images where a non-zero stable
	// counter actually engaged the ordering invariant (zero means the
	// sweep proved nothing).
	StableChecks int
}

// miniShipper is the harness's transport-free shipper: it plays the
// Shipper role (chain, sign, ship, ack) against a Backup on another
// filesystem, synchronously inside the commit group like the real one.
type miniShipper struct {
	stream uint8
	key    seal.Key
	backup *repl.Backup

	mu     sync.Mutex
	seq    uint64
	digest [seal.HashSize]byte

	// ackedSeq is sampled by the recorders before cloning: a group
	// counted here was acked, so its mirror bytes are synced.
	ackedSeq atomic.Uint64
	err      error
}

func (m *miniShipper) ship(entries []durlog.Entry) {
	if len(entries) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return
	}
	frames := make([]repl.Frame, len(entries))
	for i, e := range entries {
		frames[i] = repl.Frame{
			Kind:    e.Kind,
			Counter: e.Counter,
			Payload: append([]byte(nil), e.Payload...),
		}
	}
	req := &repl.ShipRequest{
		Stream:  m.stream,
		Primary: replPrimaryID,
		Frames:  frames,
		Seq:     m.seq + 1,
	}
	req.Digest = repl.ChainDigest(m.digest, frames)
	req.Sign(m.key)
	if _, err := m.backup.Ingest(req.Encode()); err != nil {
		m.err = fmt.Errorf("crashtest: ship %d/%d: %w", m.stream, req.Seq, err)
		return
	}
	m.seq = req.Seq
	m.digest = req.Digest
	m.ackedSeq.Store(m.seq)
}

// replSnapshot is one captured image pair (primary side) or mirror
// image (backup side), with the ack lower bounds sampled before it was
// cut.
type replSnapshot struct {
	fs    *vfs.MemFS
	peer  *vfs.MemFS // primary images: the backup's durable state at the same instant
	frac  float64
	event vfs.Event

	ackedOp   uint64
	ackedClog uint64
	ackedTx   uint64
	walSeq    uint64
	clogSeq   uint64
	// stable holds the live counters' stable values, sampled like the ack
	// bounds; nil when the image's counter files carry them.
	stable map[string]uint64
}

// replRecorder hooks one side's MemFS and captures crash images,
// deduped by durable version like the single-node recorder. Primary
// events additionally freeze the backup's durable state so the
// ordering invariant compares a consistent pair.
type replRecorder struct {
	fs   *vfs.MemFS
	peer *vfs.MemFS // nil on the backup side

	ackedOp   *atomic.Uint64
	ackedClog *atomic.Uint64
	ackedTx   *atomic.Uint64
	wal, clog *miniShipper
	stables   func() map[string]uint64 // primary side, immediate counters

	tearMirror bool // backup side: also capture torn mirror tails

	mu          sync.Mutex
	lastVersion uint64
	snaps       []*replSnapshot
	partials    int
}

func (r *replRecorder) hook(e vfs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var aop, aclog, atx uint64
	if r.ackedOp != nil {
		aop, aclog, atx = r.ackedOp.Load(), r.ackedClog.Load(), r.ackedTx.Load()
	}
	walSeq, clogSeq := r.wal.ackedSeq.Load(), r.clog.ackedSeq.Load()
	var stable map[string]uint64
	if r.stables != nil {
		stable = r.stables()
	}

	clone, ver := r.fs.CloneCrashVersioned(0)
	changed := ver != r.lastVersion
	if changed {
		r.lastVersion = ver
		s := &replSnapshot{fs: clone, event: e, ackedOp: aop, ackedClog: aclog, ackedTx: atx, walSeq: walSeq, clogSeq: clogSeq, stable: stable}
		if r.peer != nil {
			s.peer, _ = r.peer.CloneCrashVersioned(0)
		}
		r.snaps = append(r.snaps, s)
	}
	if !r.tearMirror || r.partials >= maxPartialSnaps {
		return
	}
	if !(changed || e.Op == "write") || r.fs.UnsyncedBytes() == 0 {
		return
	}
	for _, frac := range []float64{0.5, 1} {
		c, _ := r.fs.CloneCrashVersioned(frac)
		r.snaps = append(r.snaps, &replSnapshot{fs: c, frac: frac, ackedOp: aop, ackedClog: aclog, walSeq: walSeq, clogSeq: clogSeq})
		r.partials++
	}
}

// RunRepl executes the replicated workload and reboots every image on
// both sides, checking the recovery and ordering invariants.
func RunRepl(cfg Config) (ReplResult, error) {
	res := ReplResult{}
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

	pfs := vfs.NewMemFS()
	if err := pfs.MkdirAll(ctrDir, 0o755); err != nil {
		return res, err
	}
	bfs := vfs.NewMemFS()
	if err := bfs.MkdirAll(backupDir, 0o755); err != nil {
		return res, err
	}
	backup, err := repl.NewBackup(repl.BackupConfig{Dir: backupDir, FS: bfs, Key: cfg.Key})
	if err != nil {
		return res, fmt.Errorf("backup open: %w", err)
	}
	proofKey := repl.KeyFor(cfg.Key)
	walShip := &miniShipper{stream: repl.StreamWAL, key: proofKey, backup: backup}
	clogShip := &miniShipper{stream: repl.StreamClog, key: proofKey, backup: backup}

	var ackedOp, ackedClog, ackedTx atomic.Uint64
	prec := &replRecorder{fs: pfs, peer: bfs, ackedOp: &ackedOp, ackedClog: &ackedClog, ackedTx: &ackedTx, wal: walShip, clog: clogShip}
	brec := &replRecorder{fs: bfs, wal: walShip, clog: clogShip, tearMirror: cfg.PartialTails}
	ctrs := newCounters(pfs, cfg.Immediate)
	if cfg.Immediate {
		prec.stables = ctrs.stables
	}
	pfs.SetHook(prec.hook)
	bfs.SetHook(brec.hook)

	counters := ctrs.get
	db, err := lsm.Open(lsm.Options{
		Dir:          dbDir,
		FS:           pfs,
		Level:        cfg.Level,
		Key:          cfg.Key,
		Counters:     counters,
		MemTableSize: cfg.MemTableSize,
		SyncWAL:      true,
		Ship:         walShip.ship,
	})
	if err != nil {
		return res, fmt.Errorf("initial open: %w", err)
	}
	clogCtr := counters("CLOG-000001")
	clog, _, err := twopc.OpenClog(pfs, dbDir, cfg.Level, cfg.Key, nil, clogCtr, durlog.TrustedValue(cfg.Level, clogCtr))
	if err != nil {
		return res, fmt.Errorf("initial clog open: %w", err)
	}
	clog.Configure(twopc.ClogTuning{Ship: clogShip.ship})

	expected := expectedStates(cfg.Ops)
	issued := make(map[lsm.TxID]bool)

	seed := lsm.NewBatch()
	for a := 0; a < accounts; a++ {
		seed.Put(acctKey(a), u64(uint64(expected[0].bal[a])))
	}
	seed.Put([]byte("last"), u64(0))
	if _, _, err := db.Apply(seed); err != nil {
		return res, fmt.Errorf("seed: %w", err)
	}
	ackedOp.Store(1)

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
		ackedOp.Store(uint64(i) + 1)

		if i%5 == 0 {
			issued[txidFor(i)] = true
			if err := distTx(db, clog, i, &ackedClog, &ackedTx); err != nil {
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
	bfs.SetHook(nil)
	if walShip.err != nil {
		return res, walShip.err
	}
	if clogShip.err != nil {
		return res, clogShip.err
	}
	if err := backup.Close(); err != nil {
		return res, fmt.Errorf("backup close: %w", err)
	}

	res.ShippedGroups = walShip.ackedSeq.Load() + clogShip.ackedSeq.Load()
	if walShip.ackedSeq.Load() == 0 || clogShip.ackedSeq.Load() == 0 {
		return res, fmt.Errorf("vacuous sweep: wal groups=%d clog groups=%d shipped",
			walShip.ackedSeq.Load(), clogShip.ackedSeq.Load())
	}
	res.PrimaryImages = len(prec.snaps)
	res.BackupImages = len(brec.snaps)
	logf("level=%d ops=%d: %d primary images, %d backup images (%d torn), %d groups shipped",
		cfg.Level, cfg.Ops, res.PrimaryImages, res.BackupImages, brec.partials, res.ShippedGroups)

	prevCtr := make(map[string]uint64)
	for idx, snap := range prec.snaps {
		res.Replays++
		// Ordering check first: the reboot replay below runs live probe
		// writes on the image, which stabilize counters past the
		// crash-time values this check must read.
		engaged, err := replOrderCheck(cfg, snap)
		if err != nil {
			return res, fmt.Errorf("primary image %d/%d (after %s %s): %w", idx+1, len(prec.snaps), snap.event.Op, snap.event.Name, err)
		}
		if engaged {
			res.StableChecks++
		}
		one := &snapshot{fs: snap.fs, ackedOp: snap.ackedOp, ackedClog: snap.ackedClog, ackedTx: snap.ackedTx}
		if err := replay(cfg, one, expected, issued, prevCtr); err != nil {
			return res, fmt.Errorf("primary image %d/%d (after %s %s): %w", idx+1, len(prec.snaps), snap.event.Op, snap.event.Name, err)
		}
	}
	for idx, snap := range brec.snaps {
		res.Replays++
		if err := replBackupCheck(cfg, snap); err != nil {
			return res, fmt.Errorf("backup image %d/%d (frac=%.1f): %w", idx+1, len(brec.snaps), snap.frac, err)
		}
	}
	if res.StableChecks == 0 {
		return res, fmt.Errorf("no primary image had a non-zero stable counter — the ordering invariant went untested")
	}
	logf("level=%d: %d reboots, ordering invariant engaged on %d primary images",
		cfg.Level, res.Replays, res.StableChecks)
	return res, nil
}

// stablesOf returns every trusted counter's stable value as of a primary
// image: read from the image's counter files, or, for immediate counters,
// which leave none, as sampled from the live ones before the cut.
func stablesOf(snap *replSnapshot) (map[string]uint64, error) {
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

// splitRuns segments mirrored frames into maximal strictly-increasing
// counter runs. Each WAL file restarts its codec counter at 1 and files
// ship strictly in order, so the runs are exactly the per-file
// replicated prefixes, oldest first.
func splitRuns(frames []repl.Frame) [][2]uint64 {
	var runs [][2]uint64 // [first, last] counter of each run
	for _, f := range frames {
		if n := len(runs); n > 0 && f.Counter > runs[n-1][1] {
			runs[n-1][1] = f.Counter
			continue
		}
		runs = append(runs, [2]uint64{f.Counter, f.Counter})
	}
	return runs
}

// replOrderCheck asserts the ordering invariant on one primary image
// against the backup's durable state frozen at the same instant: every
// stabilized counter value is covered by the replicated-and-synced
// mirror, because stabilize only runs after the group's ship was acked
// and the ack only after the mirror fsync. Returns whether a non-zero
// stable value actually engaged the check.
func replOrderCheck(cfg Config, snap *replSnapshot) (bool, error) {
	bk, err := repl.NewBackup(repl.BackupConfig{Dir: backupDir, FS: snap.peer, Key: cfg.Key})
	if err != nil {
		return false, fmt.Errorf("paired backup reboot: %w", err)
	}
	defer bk.Close()
	engaged := false

	// Clog: one file, one monotone counter sequence.
	stables, err := stablesOf(snap)
	if err != nil {
		return false, err
	}
	if sClog := stables["CLOG-000001"]; sClog > 0 {
		engaged = true
		var maxC uint64
		frames := bk.Frames(replPrimaryID, repl.StreamClog)
		for _, f := range frames {
			if _, derr := twopc.DecodeClogRecord(f.Kind, f.Counter, f.Payload); derr != nil {
				return false, fmt.Errorf("mirrored clog frame ctr=%d does not decode: %w", f.Counter, derr)
			}
			if f.Counter > maxC {
				maxC = f.Counter
			}
		}
		if maxC < sClog {
			return false, fmt.Errorf("clog stable counter %d outruns the synced mirror (max mirrored %d)", sClog, maxC)
		}
	}

	// WAL: every file that stabilized a value has a mirrored run (ship
	// precedes stabilize), runs and counter files are both in file
	// order, and the mirror may only be AHEAD (a newly rotated file can
	// ship before its first stabilize persists, never the other way).
	runs := splitRuns(bk.Frames(replPrimaryID, repl.StreamWAL))
	for j, sWal := range walStables(stables) {
		if sWal == 0 {
			continue
		}
		engaged = true
		if j >= len(runs) {
			return false, fmt.Errorf("wal file %d stabilized %d with only %d mirrored runs — a stabilized file never shipped", j+1, sWal, len(runs))
		}
		if last := runs[j][1]; last < sWal {
			return false, fmt.Errorf("wal file %d stable counter %d outruns its synced mirror run (last mirrored %d)", j+1, sWal, last)
		}
	}
	return engaged, nil
}

// replBackupCheck reboots one backup power-cut image: the mirror must
// open cleanly (torn tails truncated, never fatal) and still cover
// every group whose ack the primary had received when the image was
// cut.
func replBackupCheck(cfg Config, snap *replSnapshot) error {
	bk, err := repl.NewBackup(repl.BackupConfig{Dir: backupDir, FS: snap.fs, Key: cfg.Key})
	if err != nil {
		return fmt.Errorf("backup reboot failed: %w", err)
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
		seq, _, ok := bk.StreamState(replPrimaryID, st.stream)
		if !ok || seq < st.acked {
			return fmt.Errorf("%s mirror lost acked groups: recovered seq %d (ok=%v) < acked %d",
				st.name, seq, ok, st.acked)
		}
	}
	return nil
}
