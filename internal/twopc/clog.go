// Package twopc implements Treaty's secure two-phase commit protocol for
// distributed transactions (§V) and its stabilization-integrated recovery
// (§VI). A transaction coordinator (TxC) drives each global transaction:
// it routes operations to participant nodes over the secure RPC layer,
// logs 2PC state transitions to the Clog with trusted-counter binding,
// and commits only after every participant's prepare entry — and its own
// decision entry — are rollback-protected.
package twopc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"treaty/internal/enclave"
	"treaty/internal/lsm"
	"treaty/internal/mempool"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/vfs"
)

// Clog entry kinds.
const (
	// clogPrepare records that the coordinator started the prepare phase
	// for a transaction with the listed participants (Fig. 2 step 5).
	clogPrepare uint8 = iota + 1
	// clogDecision records the commit/abort decision (step 6-7); it must
	// be stabilized before the transaction commits.
	clogDecision
)

// Exported record kinds for harnesses that drive Append directly (the
// crash-point harness appends synthetic coordinator records).
const (
	ClogKindPrepare  = clogPrepare
	ClogKindDecision = clogDecision
)

// ErrClogClosed indicates an append against a closed coordinator log.
var ErrClogClosed = errors.New("twopc: clog closed")

// ClogEntry is one recovered coordinator-log record.
type ClogEntry struct {
	// Kind is clogPrepare or clogDecision.
	Kind uint8
	// TxID is the global transaction id.
	TxID lsm.TxID
	// Commit is the decision (valid for clogDecision).
	Commit bool
	// Participants lists the involved node addresses (clogPrepare).
	Participants []string
	// Counter is the entry's trusted counter value.
	Counter uint64
}

// DecodeClogRecord rebuilds a ClogEntry from a shipped (kind, counter,
// payload) triple — the form replication mirrors Clog records in.
func DecodeClogRecord(kind uint8, counter uint64, payload []byte) (ClogEntry, error) {
	if kind != clogPrepare && kind != clogDecision {
		return ClogEntry{}, fmt.Errorf("twopc: unknown clog record kind %d", kind)
	}
	txID, commit, parts, err := decodeClogPayload(payload)
	if err != nil {
		return ClogEntry{}, err
	}
	return ClogEntry{Kind: kind, TxID: txID, Commit: commit, Participants: parts, Counter: counter}, nil
}

// encodeClogPayload serializes an entry body.
func encodeClogPayload(txID lsm.TxID, commit bool, participants []string) []byte {
	out := make([]byte, 0, 32)
	out = append(out, txID[:]...)
	if commit {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = append(out, byte(len(participants)))
	for _, p := range participants {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(p)))
		out = append(out, p...)
	}
	return out
}

// decodeClogPayload parses an entry body.
func decodeClogPayload(data []byte) (txID lsm.TxID, commit bool, participants []string, err error) {
	if len(data) < 18 {
		err = errors.New("twopc: short clog entry")
		return
	}
	copy(txID[:], data)
	commit = data[16] == 1
	n := int(data[17])
	off := 18
	for i := 0; i < n; i++ {
		if off+2 > len(data) {
			err = errors.New("twopc: truncated clog entry")
			return
		}
		l := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+l > len(data) {
			err = errors.New("twopc: truncated clog entry")
			return
		}
		participants = append(participants, string(data[off:off+l]))
		off += l
	}
	return
}

// clogRes completes one waiter of a commit group.
type clogRes struct {
	token lsm.StableToken
	err   error
}

// clogReq is one entry enqueued for the group-commit leader.
type clogReq struct {
	kind    uint8
	payload []byte
	ctr     uint64
	// demand: the record starts a trusted-counter round. Decisions do — a
	// commit is waited on, an abort is pushed to participants right away
	// and must not be outlived by its prepare record. A prepare record
	// never does: losing it is presumed abort.
	demand bool
	done   chan clogRes
}

// defaultClogGroup bounds entries per commit group (matching the storage
// engine's MaxGroupCommit default).
const defaultClogGroup = 64

// Clog is the coordinator log: it keeps the 2PC protocol state with the
// same framing, hash chaining, and trusted-counter binding as the WAL and
// MANIFEST. Appends from concurrent coordinator fibers are group-
// committed: callers enqueue encoded entries, one leader goroutine drains
// the queue, writes the whole group with a single file write, forces it
// with a single fsync, and — if the group holds a decision — issues a
// single Stabilize at the group's maximum counter value. Stabilization
// therefore always follows the force of the entire group — the trusted
// counter can never run ahead of the log's synced prefix, so a power cut
// cannot manifest as a false-positive ErrRollbackDetected at recovery.
// Groups of prepare records only ride the next demanded round
// (stabilizing v covers every v' < v).
type Clog struct {
	f     vfs.File
	codec *seal.LogCodec
	rt    *enclave.Runtime
	ctr   lsm.TrustedCounter

	// Group-commit tuning; set by Configure before the first Append.
	maxGroup int
	noGroup  bool
	pool     *mempool.Pool
	ship     func([]lsm.ReplEntry)

	appendCh chan *clogReq
	closedMu sync.RWMutex
	closed   atomic.Bool
	wg       sync.WaitGroup

	// mu guards the cross-goroutine mutable state below (the leader is
	// the only writer of poisoned; Append's fast-fail path and Close read
	// it).
	mu sync.Mutex
	// poisoned is the sticky fail-stop error after a write/sync failure
	// (fsyncgate: the unsynced tail must be assumed lost, not retried).
	poisoned error
	// tornDropped records that opening found and dropped a crash-torn
	// tail; droppedTail holds the intact records of an unstabilized tail
	// it dropped.
	tornDropped bool
	droppedTail []ClogEntry

	// lastCtr is the highest counter value assigned to an appended entry;
	// synced is the highest value known forced to stable storage. The
	// leader maintains synced ≤ lastCtr and never stabilizes past synced.
	lastCtr atomic.Uint64
	synced  atomic.Uint64

	// buf is the leader's group staging buffer: all entries of a group
	// are framed into it and written with one syscall. When a mempool is
	// configured it is backed by a pooled host-region buffer (the frames
	// leave the enclave for the untrusted log).
	buf      []byte
	groupBuf *mempool.Buf

	// metrics (nil-safe no-ops without a registry)
	groupSizes  *obs.Histogram
	appends     *obs.Counter
	syncs       *obs.Counter
	syncLatency *obs.Histogram
	deferred    *obs.Counter // (prepare-only) groups written without a counter round
}

// clogName builds the Clog path.
func clogName(dir string) string { return filepath.Join(dir, "CLOG-000001") }

// OpenClog creates or re-opens the coordinator log. Existing entries are
// replayed (verifying chain, counters, and freshness against maxStable;
// pass -1 to skip freshness) and returned for coordinator recovery.
//
// A decode failure at the tail is tolerated — and the tail truncated —
// when it is provably a crash artifact rather than an attack: a
// byte-level truncation anywhere, any failure at LevelNone, or any
// failure past the trusted stable point (those entries were never
// acknowledged). fs nil uses the real filesystem.
func OpenClog(fs vfs.FS, dir string, level seal.SecurityLevel, key seal.Key, rt *enclave.Runtime, ctr lsm.TrustedCounter, maxStable int64) (*Clog, []ClogEntry, error) {
	if fs == nil {
		fs = vfs.Default
	}
	path := clogName(dir)
	codec, err := seal.NewLogCodec(level, key, filepath.Base(path), 1)
	if err != nil {
		return nil, nil, err
	}
	var entries, dropped []ClogEntry
	torn := false
	existed := true
	data, err := fs.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		existed = false // fresh log
	case err != nil:
		return nil, nil, fmt.Errorf("twopc: reading clog: %w", err)
	default:
		off := 0
		last := uint64(0)
		// Where the stabilized prefix ends, once decoding passes it. The
		// records beyond are an unstabilized tail (the usual state of a
		// crashed log: prepare records defer their round): they are
		// collected for DroppedTail and truncated below, so appends must
		// chain on the last kept entry, not on the last one decoded.
		stableOff, stableCodec := -1, *codec
		for off < len(data) {
			before := *codec
			e, n, derr := codec.DecodeEntry(data[off:])
			if derr != nil {
				tolerable := errors.Is(derr, seal.ErrTruncated) || level == seal.LevelNone ||
					maxStable < 0 || last >= uint64(maxStable)
				if tolerable {
					torn = true
					break
				}
				return nil, nil, fmt.Errorf("twopc: clog entry at %d: %w", off, derr)
			}
			unstable := maxStable >= 0 && e.Counter > uint64(maxStable)
			if unstable && stableOff < 0 {
				stableOff, stableCodec = off, before
			}
			txID, commit, parts, perr := decodeClogPayload(e.Payload)
			if perr != nil {
				return nil, nil, perr
			}
			entry := ClogEntry{
				Kind: e.Kind, TxID: txID, Commit: commit,
				Participants: parts, Counter: e.Counter,
			}
			if unstable {
				dropped = append(dropped, entry)
			} else {
				entries = append(entries, entry)
				last = e.Counter
			}
			off += n
		}
		if stableOff >= 0 {
			off, *codec = stableOff, stableCodec
		}
		if maxStable > 0 && last < uint64(maxStable) {
			return nil, nil, fmt.Errorf("%w: clog ends at counter %d, trusted value is %d",
				lsm.ErrRollbackDetected, last, maxStable)
		}
		if off < len(data) {
			// Dropping a tail must itself be durable before appending
			// resumes: without the force a second crash could resurrect
			// the truncated bytes under freshly appended frames, splicing
			// the hash chain mid-file.
			if err := fs.Truncate(path, int64(off)); err != nil {
				return nil, nil, fmt.Errorf("twopc: truncating clog: %w", err)
			}
			if err := vfs.SyncPath(fs, path); err != nil {
				return nil, nil, fmt.Errorf("twopc: syncing truncated clog: %w", err)
			}
			if err := fs.SyncDir(dir); err != nil {
				return nil, nil, fmt.Errorf("twopc: syncing dir after clog truncate: %w", err)
			}
		}
	}

	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("twopc: opening clog: %w", err)
	}
	if !existed {
		// Make the log's directory entry durable so a post-crash recovery
		// sees the (possibly empty) file.
		if err := fs.SyncDir(dir); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("twopc: syncing dir after clog create: %w", err)
		}
	}
	if rt != nil {
		rt.Syscall()
	}
	c := &Clog{
		f:        f,
		codec:    codec,
		rt:       rt,
		ctr:      ctr,
		maxGroup: defaultClogGroup,
		appendCh: make(chan *clogReq, defaultClogGroup),

		tornDropped: torn,
		droppedTail: dropped,
	}
	c.lastCtr.Store(codec.NextCounter() - 1)
	c.synced.Store(codec.NextCounter() - 1)
	c.wg.Add(1)
	go c.leader()
	return c, entries, nil
}

// ClogTuning adjusts the group-commit leader.
type ClogTuning struct {
	// MaxGroup bounds entries per commit group (0 = 64).
	MaxGroup int
	// DisableGroupCommit makes every append write, force, and stabilize
	// alone (the group-commit ablation).
	DisableGroupCommit bool
	// Metrics, when non-nil, exports the append/sync counters and the
	// "twopc.clog.group_size" histogram.
	Metrics *obs.Registry
	// Pool, when non-nil, backs the group staging buffer with pooled
	// host-region memory (the framed bytes leave the enclave).
	Pool *mempool.Pool
	// Ship, when non-nil, is called once per commit group after the
	// group's fsync succeeded and before its counters stabilize (same
	// contract as lsm.Options.Ship): the replication ack — or a durable
	// degrade mark — must precede the trusted-counter advance. Entries
	// alias per-request payloads owned by the leader; copy to retain.
	Ship func([]lsm.ReplEntry)
}

// Configure applies tuning. It must be called before the first Append:
// the leader only reads this state while processing a request, so the
// channel send in Append is what publishes it.
func (c *Clog) Configure(t ClogTuning) {
	if t.MaxGroup > 0 {
		c.maxGroup = t.MaxGroup
	}
	c.noGroup = t.DisableGroupCommit
	c.pool = t.Pool
	c.ship = t.Ship
	if t.Metrics != nil {
		c.groupSizes = t.Metrics.Histogram("twopc.clog.group_size")
		c.appends = t.Metrics.Counter("twopc.clog.appends")
		c.syncs = t.Metrics.Counter("twopc.clog.syncs")
		c.syncLatency = t.Metrics.Histogram("twopc.clog.sync.latency_ns")
		c.deferred = t.Metrics.Counter("twopc.clog.stabilize_deferred")
		t.Metrics.GaugeFunc("twopc.clog.appended_lsn", func() int64 { return int64(c.lastCtr.Load()) })
		t.Metrics.GaugeFunc("twopc.clog.stable_lsn", func() int64 { return int64(c.ctr.StableValue()) })
	}
}

// TornTailDropped reports whether opening dropped a crash-torn tail (a
// detected-corruption event for the observability layer).
func (c *Clog) TornTailDropped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tornDropped
}

// DroppedTail returns the records opening found forced but not
// rollback-protected, and dropped. Nobody was acknowledged on their
// strength — a coordinator acts on a decision only once it is stable — so
// recovery presumes abort for their transactions, and tells the
// participants, which may still hold them prepared.
func (c *Clog) DroppedTail() []ClogEntry { return c.droppedTail }

// Append logs one entry via the group-commit leader and returns a token
// the caller can wait on ("Every Tx/operation is logged to Clog with its
// own unique trusted counter value"). The call returns once the entry's
// group has been written AND forced — an acknowledged append is durable.
// A decision demands a trusted-counter round: the coordinator waits on a
// commit's token before acting, and an abort is started on its way as
// before. A prepare record lost as an unstabilized tail re-derives as
// presumed abort, so it rides the next demanded round (its token stays
// waitable: waiting raises the demand). The Clog is fail-stop: a write or
// sync failure poisons it and fails the whole unacknowledged cohort — the
// codec chain has advanced past the lost entries (and after a failed
// fsync the tail may be gone), so continuing to append would silently
// splice the protocol log. A counter that can no longer persist poisons
// it too.
func (c *Clog) Append(kind uint8, txID lsm.TxID, commit bool, participants []string) (lsm.StableToken, error) {
	req := &clogReq{
		kind:    kind,
		payload: encodeClogPayload(txID, commit, participants),
		demand:  kind == clogDecision,
		done:    make(chan clogRes, 1),
	}
	c.closedMu.RLock()
	if c.closed.Load() {
		c.closedMu.RUnlock()
		c.mu.Lock()
		err := c.poisoned
		c.mu.Unlock()
		if err == nil {
			err = ErrClogClosed
		}
		return lsm.StableToken{}, err
	}
	c.appendCh <- req
	c.closedMu.RUnlock()
	res := <-req.done
	return res.token, res.err
}

// leader is the group-commit loop: it drains a group of pending appends
// and commits them with one write, one force, and one counter
// stabilization (mirroring the storage engine's committer, §VII-B).
func (c *Clog) leader() {
	defer c.wg.Done()
	for req := range c.appendCh {
		group := []*clogReq{req}
		if !c.noGroup {
		drain:
			for len(group) < c.maxGroup {
				select {
				case r2, ok := <-c.appendCh:
					if !ok {
						break drain
					}
					group = append(group, r2)
				default:
					break drain
				}
			}
		}
		c.commitGroup(group)
	}
}

// failGroup completes every waiter of a group with err.
func failGroup(group []*clogReq, err error) {
	for _, req := range group {
		req.done <- clogRes{err: err}
	}
}

// poison records the sticky fail-stop error (leader only).
func (c *Clog) poison(err error) {
	c.mu.Lock()
	if c.poisoned == nil {
		c.poisoned = err
	}
	c.mu.Unlock()
}

// commitGroup writes, forces, and stabilizes one group. The ordering
// invariant lives here: Stabilize is called only after the group's sync
// succeeded, and only up to the synced watermark, so the trusted
// counter's persisted value can never exceed the log's durable prefix.
func (c *Clog) commitGroup(group []*clogReq) {
	c.groupSizes.Observe(int64(len(group)))
	c.mu.Lock()
	if err := c.poisoned; err != nil {
		c.mu.Unlock()
		failGroup(group, err)
		return
	}
	c.mu.Unlock()

	// Pooled batch encode: every entry of the group is framed into one
	// staging buffer, paying one write and one enclave-boundary crossing
	// for the whole group.
	buf := c.stagingBuf()
	var maxCtr uint64
	demand := false
	for _, req := range group {
		buf, req.ctr = c.codec.AppendEntry(buf, req.kind, req.payload)
		maxCtr = req.ctr
		demand = demand || req.demand
		c.appends.Inc()
	}
	c.lastCtr.Store(maxCtr)
	c.retainStaging(buf)
	if c.rt != nil {
		c.rt.Syscall()
	}
	if _, err := c.f.Write(buf); err != nil {
		c.poison(fmt.Errorf("%w: clog write: %v", lsm.ErrLogPoisoned, err))
		failGroup(group, fmt.Errorf("twopc: clog write: %w", err))
		return
	}
	if c.rt != nil {
		c.rt.Syscall()
	}
	syncStart := time.Now()
	err := c.f.Sync()
	c.syncs.Inc()
	c.syncLatency.ObserveSince(syncStart)
	if err != nil {
		// The group's durability is unknown (fsyncgate: the tail may be
		// gone). Never stabilize it — advancing the trusted counter past
		// a lost tail would turn the loss into a false rollback alarm at
		// the next boot — and fail exactly this unacknowledged cohort.
		c.poison(fmt.Errorf("%w: clog sync: %v", lsm.ErrLogPoisoned, err))
		failGroup(group, fmt.Errorf("twopc: clog sync: %w", err))
		return
	}
	c.synced.Store(maxCtr)

	// Replicate before stabilizing: the backup's ack (or a durable
	// degrade mark) must exist before the trusted counter pins this
	// group, so a promoted replica provably holds every stabilized
	// entry.
	if c.ship != nil {
		shipped := make([]lsm.ReplEntry, len(group))
		for i, req := range group {
			shipped[i] = lsm.ReplEntry{Kind: req.kind, Counter: req.ctr, Payload: req.payload}
		}
		c.ship(shipped)
	}

	// Clamp stabilization to the synced prefix. By construction maxCtr ==
	// synced here; the clamp is the structural guard against ever
	// reintroducing the stabilize-before-durable ordering bug.
	stable := maxCtr
	if s := c.synced.Load(); s < stable {
		stable = s
	}
	if demand {
		c.ctr.Stabilize(stable)
	} else {
		c.deferred.Inc()
	}
	if fc, ok := c.ctr.(interface{ Failed() error }); ok {
		if cerr := fc.Failed(); cerr != nil {
			// The counter cannot persist: a restart's freshness check
			// would discard these entries as an unstabilized tail, so
			// they must not be acknowledged.
			c.poison(fmt.Errorf("%w: clog counter: %v", lsm.ErrLogPoisoned, cerr))
			failGroup(group, cerr)
			return
		}
	}
	for _, req := range group {
		token := lsm.NewStableToken(c.ctr, req.ctr)
		if !req.demand {
			token = lsm.NewDeferredToken(c.ctr, req.ctr)
		}
		req.done <- clogRes{token: token}
	}
}

// stagingBuf returns the empty group staging buffer, pool-backed when a
// mempool is configured.
func (c *Clog) stagingBuf() []byte {
	if c.pool == nil {
		return c.buf[:0]
	}
	if c.groupBuf == nil {
		c.groupBuf = c.pool.Alloc(4096, mempool.RegionHost)
	}
	return c.groupBuf.Full()[:0]
}

// retainStaging keeps the (possibly grown) staging buffer for the next
// group. A group that outgrew a pooled buffer escaped to the heap; the
// pooled backing is re-sized so the next group stays pooled.
func (c *Clog) retainStaging(buf []byte) {
	if c.pool == nil {
		c.buf = buf
		return
	}
	if cap(buf) > cap(c.groupBuf.Full()) {
		c.pool.Free(c.groupBuf)
		c.groupBuf = c.pool.Alloc(cap(buf), mempool.RegionHost)
	}
}

// Abandon crash-stops the log: queued and future appends fail without
// touching the file, and the call returns only after the leader exits,
// so no write can reach the file afterwards. Crash teardown needs this
// barrier because coordinator appends run on client goroutines that no
// scheduler stop can freeze — without it, an abort decision raced by a
// simulated crash keeps writing into a file the restarted instance now
// owns, splicing the hash chain mid-log. The file stays open (a crash
// does not get a clean close), and the poison mark makes a later Close
// report the teardown instead of a clean shutdown.
func (c *Clog) Abandon() {
	c.poison(fmt.Errorf("%w: clog abandoned by crash teardown", lsm.ErrLogPoisoned))
	if c.closed.Swap(true) {
		return
	}
	c.closedMu.Lock()
	close(c.appendCh)
	c.closedMu.Unlock()
	c.wg.Wait()
}

// Close drains the leader and closes the log file. A poisoned log never
// reports a clean close: its tail durability is unknown, and pretending
// otherwise would let a shutdown path mask an acknowledged-loss bug.
func (c *Clog) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.closedMu.Lock()
	close(c.appendCh)
	c.closedMu.Unlock()
	c.wg.Wait()
	c.mu.Lock()
	p := c.poisoned
	c.mu.Unlock()
	var serr error
	if p == nil {
		// A clean close leaves no unstabilized tail behind (every group was
		// forced, so the whole log is inside the synced prefix).
		serr = lsm.NewDeferredToken(c.ctr, c.lastCtr.Load()).Wait()
	}
	if c.rt != nil {
		c.rt.Syscall()
	}
	cerr := c.f.Close()
	if c.groupBuf != nil {
		c.pool.Free(c.groupBuf)
		c.groupBuf = nil
	}
	if p != nil {
		return p
	}
	if serr != nil {
		return fmt.Errorf("twopc: clog close: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("twopc: clog close: %w", cerr)
	}
	return nil
}

// LastCounter returns the counter value of the most recent entry.
func (c *Clog) LastCounter() uint64 { return c.lastCtr.Load() }

// SyncedCounter returns the highest counter value known forced to stable
// storage (test hook for the ordering invariant: acknowledged tokens
// never exceed it).
func (c *Clog) SyncedCounter() uint64 { return c.synced.Load() }

// Stable reports whether every appended entry is rollback-protected —
// one of the two preconditions for Clog truncation (§VI: "The Clog is
// deleted as long as there are no unstable entries and does not contain
// any unfinished prepared transaction entry"). The other precondition —
// no unfinished prepared transactions — is the coordinator's to check.
func (c *Clog) Stable() bool {
	return c.ctr.StableValue() >= c.lastCtr.Load()
}
