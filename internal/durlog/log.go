// Package durlog is Treaty's one durable log (§V-A, §VI): every log file
// — WAL, MANIFEST, Clog, the counter replica's journal and the backup's
// replication mirror — is a sequence of chained frames, each bound to the
// next value of the file's own trusted counter, that is written, forced,
// shipped and then stabilized. The package states once the three
// invariants all of them rely on:
//
//  1. stable ≤ synced ≤ appended. The trusted counter is only ever told
//     about entries inside the forced prefix, so a power cut cannot leave
//     the counter ahead of the file (a false ErrRollbackDetected, or worse,
//     an acknowledged entry that is gone).
//  2. poisoned ⟹ never acknowledged. A failed write or fsync, or a
//     counter that can no longer persist, fail-stops the log: the cohort in
//     flight and every later one get the sticky error. After a failed
//     fsync the kernel may have dropped the dirty pages (fsyncgate) and the
//     codec chain has advanced past them; appending on would splice the log.
//  3. A dropped tail is durable before the next append. Opening truncates
//     a crash-torn or unstabilized tail, forces the truncation, and chains
//     new frames on the last entry it kept.
//
// A client supplies payloads and policy — which records demand a counter
// round, what a dropped tail means — and nothing else.
package durlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"treaty/internal/enclave"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/vfs"
)

// ErrLogPoisoned indicates a log that fail-stopped (invariant 2). The only
// safe continuation is a restart that re-runs recovery.
var ErrLogPoisoned = errors.New("durlog: log poisoned by earlier write/sync failure")

// ErrRollbackDetected indicates recovery found persistent state that is
// stale or spliced relative to the trusted counter — a rollback or fork
// attack (§VI).
var ErrRollbackDetected = errors.New("durlog: rollback attack detected")

// Entry is one log record: what a client appends, what replay returns and
// what the Ship hook forwards. Counter is assigned by Commit.
type Entry struct {
	Kind    uint8
	Counter uint64
	Payload []byte
}

// Config names a log file and how it is protected.
type Config struct {
	// FS is the filesystem (nil uses the real OS); Path the log file.
	FS   vfs.FS
	Path string
	// Level and Key select the frame codec; the file's base name seeds the
	// hash chain so chains of different files are not interchangeable.
	Level seal.SecurityLevel
	Key   seal.Key
	// Runtime charges TEE costs (one async syscall per file operation and
	// per replayed entry); nil means native.
	Runtime *enclave.Runtime
	// Counter is the file's own trusted counter.
	Counter TrustedCounter
	// Force fsyncs every commit group. Every log a node acknowledges from
	// — WAL, MANIFEST, Clog, the replication mirror — sets it, which is
	// what makes invariant 1 hold across a power cut. Without it a written
	// group counts as synced and only Close forces: that is the counter
	// replica's journal alone, which keeps ROTE's process-crash model (a
	// replica's power cut is a minority rollback, not a lost write).
	Force bool
	Hooks
}

// Hooks are the optional attachments of a log's commit path.
type Hooks struct {
	// Ship, when non-nil, is called once per commit group after the group
	// has been written and forced and before its counters stabilize: a
	// replication ack — or a durable degrade mark — must precede the
	// trusted-counter advance, so a promoted replica provably holds every
	// stabilized entry. The entries are valid only during the call. Ship
	// runs on the committing goroutine with the client's locks held: it
	// must not call back into the log's owner.
	Ship func([]Entry)
	// Appends counts records, Syncs and SyncLatency the per-group forces.
	// Demanded counts the stabilizations the log asked for (groups with a
	// demanding record, the close-time tail), Deferred the groups written
	// without one. Successful counter rounds never exceed the demands
	// (core's round law). All are nil-safe.
	Appends, Syncs, Demanded, Deferred *obs.Counter
	SyncLatency                        *obs.Histogram
}

// Log is one open log file. Commit and Close are serialized by the caller
// (a Queue's leader, or the owner's lock); everything else is safe from
// any goroutine.
type Log struct {
	cfg   Config
	f     vfs.File
	codec *seal.LogCodec
	name  string

	// buf is the group staging buffer: all entries of a group are framed
	// into it and written with one syscall — one enclave-boundary crossing
	// for the whole group. It is reused from group to group.
	buf []byte

	mu       sync.Mutex
	poisoned error // sticky, see invariant 2

	// lastCtr is the counter value of the most recent framed entry, synced
	// the highest value known forced. Commit never stabilizes past synced.
	lastCtr, synced atomic.Uint64
	// size is the file's length: the kept prefix plus every group written.
	size atomic.Int64
}

func (cfg *Config) withDefaults() {
	if cfg.FS == nil {
		cfg.FS = vfs.Default
	}
}

func (cfg *Config) syscall() {
	if cfg.Runtime != nil {
		cfg.Runtime.Syscall()
	}
}

func (cfg *Config) newCodec() (*seal.LogCodec, error) {
	codec, err := seal.NewLogCodec(cfg.Level, cfg.Key, filepath.Base(cfg.Path), 1)
	if err != nil {
		return nil, fmt.Errorf("durlog: %s codec: %w", filepath.Base(cfg.Path), err)
	}
	return codec, nil
}

// Create starts a fresh log file, durably: the creation is dir-fsynced so
// a post-crash recovery sees the (possibly empty) file.
func Create(cfg Config) (*Log, error) {
	cfg.withDefaults()
	codec, err := cfg.newCodec()
	if err != nil {
		return nil, err
	}
	f, err := cfg.FS.Create(cfg.Path)
	if err != nil {
		return nil, fmt.Errorf("durlog: creating %s: %w", cfg.Path, err)
	}
	if err := cfg.FS.SyncDir(filepath.Dir(cfg.Path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("durlog: syncing dir after creating %s: %w", cfg.Path, err)
	}
	return newLog(cfg, f, codec, 0), nil
}

// Open replays an existing log (see Replay), durably drops whatever tail
// replay did not keep (invariant 3) and re-opens the file for append with
// the codec chained on the last kept entry. A missing file is created.
func Open(cfg Config, maxStable int64) (*Log, Replayed, error) {
	cfg.withDefaults()
	if _, err := cfg.FS.Stat(cfg.Path); errors.Is(err, os.ErrNotExist) {
		l, err := Create(cfg)
		return l, Replayed{}, err
	}
	r, err := Replay(cfg, maxStable)
	if err != nil {
		return nil, Replayed{}, err
	}
	if r.Torn || len(r.Dropped) > 0 {
		// Without the force a second crash could resurrect the truncated
		// bytes under freshly appended frames, splicing the hash chain
		// mid-file.
		if err := cfg.FS.Truncate(cfg.Path, r.kept); err != nil {
			return nil, Replayed{}, fmt.Errorf("durlog: truncating %s: %w", cfg.Path, err)
		}
		if err := vfs.SyncPath(cfg.FS, cfg.Path); err != nil {
			return nil, Replayed{}, fmt.Errorf("durlog: syncing truncated %s: %w", cfg.Path, err)
		}
		if err := cfg.FS.SyncDir(filepath.Dir(cfg.Path)); err != nil {
			return nil, Replayed{}, fmt.Errorf("durlog: syncing dir after truncating %s: %w", cfg.Path, err)
		}
	}
	f, err := cfg.FS.OpenFile(cfg.Path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, Replayed{}, fmt.Errorf("durlog: reopening %s: %w", cfg.Path, err)
	}
	return newLog(cfg, f, r.codec, r.kept), r, nil
}

func newLog(cfg Config, f vfs.File, codec *seal.LogCodec, size int64) *Log {
	cfg.syscall()
	l := &Log{cfg: cfg, f: f, codec: codec, name: filepath.Base(cfg.Path)}
	l.lastCtr.Store(codec.NextCounter() - 1)
	l.synced.Store(codec.NextCounter() - 1)
	l.size.Store(size)
	return l
}

// SetHooks replaces the log's hooks. It must be called before the first
// Commit (a Queue's Submit is what publishes it to the leader).
func (l *Log) SetHooks(h Hooks) { l.cfg.Hooks = h }

// Commit is the one commit routine. It frames the group into the staging
// buffer, writes it with one write, forces it, hands it to the Ship hook,
// and — only if demand says some record of the group has a caller waiting
// on its token — starts one trusted-counter round at the group's last
// value, clamped to the synced prefix (invariant 1). A group without
// demand rides the next demanded round: stabilizing v covers every v' < v.
// On success each entry's Counter is set. Any error fails the whole
// cohort — one write carried it — and, together with a counter that
// reports Failed, poisons the log (invariant 2).
func (l *Log) Commit(group []Entry, demand bool) error {
	if err := l.Poisoned(); err != nil {
		return err
	}
	buf := l.buf[:0]
	for i := range group {
		buf, group[i].Counter = l.codec.AppendEntry(buf, group[i].Kind, group[i].Payload)
	}
	l.buf = buf
	last := group[len(group)-1].Counter
	l.lastCtr.Store(last)
	l.cfg.Appends.Add(uint64(len(group)))

	l.cfg.syscall()
	if _, err := l.f.Write(buf); err != nil {
		return l.poison("write", err)
	}
	l.size.Add(int64(len(buf)))
	if l.cfg.Force {
		start := time.Now()
		err := l.sync()
		l.cfg.Syncs.Inc()
		l.cfg.SyncLatency.ObserveSince(start)
		if err != nil {
			// The group's durability is unknown. Never stabilize it:
			// advancing the trusted counter past a lost tail would turn the
			// loss into a false rollback alarm at the next boot.
			return err
		}
	}
	l.synced.Store(last)

	if l.cfg.Ship != nil {
		l.cfg.Ship(group)
	}
	if demand {
		l.cfg.Demanded.Inc()
		l.cfg.Counter.Stabilize(min(last, l.synced.Load()))
	} else {
		l.cfg.Deferred.Inc()
	}
	if cerr := l.cfg.Counter.Failed(); cerr != nil {
		// The counter cannot persist: a restart's freshness check would
		// discard these entries as an unstabilized tail, so they must not
		// be acknowledged.
		l.setPoison(fmt.Errorf("%w: %s counter: %v", ErrLogPoisoned, l.name, cerr))
		return cerr
	}
	return nil
}

// sync forces the file; a failure poisons the log.
func (l *Log) sync() error {
	l.cfg.syscall()
	if err := l.f.Sync(); err != nil {
		return l.poison("sync", err)
	}
	return nil
}

// Token returns the waitable position of a committed entry. demand says
// whether the entry's record started a round itself; if not, waiting on
// the token raises the demand.
func (l *Log) Token(counter uint64, demand bool) StableToken {
	return StableToken{ctr: l.cfg.Counter, value: counter, deferred: !demand}
}

// poison fail-stops the log after a failed file operation and returns the
// error for the cohort in flight.
func (l *Log) poison(op string, err error) error {
	l.setPoison(fmt.Errorf("%w: %s %s: %v", ErrLogPoisoned, l.name, op, err))
	return fmt.Errorf("durlog: %s %s: %w", l.name, op, err)
}

func (l *Log) setPoison(err error) {
	l.mu.Lock()
	if l.poisoned == nil {
		l.poisoned = err
	}
	l.mu.Unlock()
}

// Poisoned returns the sticky fail-stop error, if any.
func (l *Log) Poisoned() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.poisoned
}

// Abandon crash-stops the log: every later Commit fails without touching
// the file, which stays open (a crash does not get a clean close), and a
// later Close reports the teardown instead of a clean shutdown. Crash
// teardown pairs it with Queue.Close, which barriers on the group in
// flight — appends may run on goroutines no scheduler stop can freeze, and
// without the barrier one raced by a simulated crash keeps writing into a
// file the restarted instance now owns.
func (l *Log) Abandon() {
	l.setPoison(fmt.Errorf("%w: %s abandoned by crash teardown", ErrLogPoisoned, l.name))
}

// Close ends writing to the log: a final force (unless every group already
// was), then the whole tail is stabilized and waited for, then the file is
// closed. No log keeps an unstabilized suffix once a successor accepts
// entries — the suffix would be discarded at recovery while later,
// stabilized entries in the successor survive: a clean close leaves the
// stable value equal to the last appended one, or reports why not. A
// poisoned log never reports a clean close: its tail durability is
// unknown.
func (l *Log) Close() error {
	err := l.Poisoned()
	if err == nil && !l.cfg.Force {
		err = l.sync()
	}
	if err == nil {
		last := l.lastCtr.Load()
		l.synced.Store(last)
		l.cfg.Demanded.Inc()
		if err = l.Token(last, false).Wait(); err != nil {
			l.setPoison(fmt.Errorf("%w: %s counter: %v", ErrLogPoisoned, l.name, err))
		} else if stable := l.StableValue(); stable != last {
			err = fmt.Errorf("durlog: %s closed with stable counter %d != last appended %d", l.name, stable, last)
		}
	}
	l.cfg.syscall()
	cerr := l.f.Close()
	if err == nil && cerr != nil {
		err = fmt.Errorf("durlog: closing %s: %w", l.name, cerr)
	}
	return err
}

// LastCounter returns the counter value of the most recent entry (0 when
// empty).
func (l *Log) LastCounter() uint64 { return l.lastCtr.Load() }

// Size returns the log file's length in bytes.
func (l *Log) Size() int64 { return l.size.Load() }

// SyncedCounter returns the highest counter value known forced to stable
// storage: acknowledged tokens never exceed it.
func (l *Log) SyncedCounter() uint64 { return l.synced.Load() }

// StableValue returns the trusted counter's stable value for this log.
func (l *Log) StableValue() uint64 { return l.cfg.Counter.StableValue() }
