package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"treaty/internal/durlog"
	"treaty/internal/erpc"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/vfs"
)

// Backup receives ship requests and durably mirrors them. It does NOT
// apply the records to its own engine: a mirror is raw replicated
// history, applied exactly once — at promotion — through the fold crash
// recovery uses. (Applying eagerly would also ship the applied records
// back out through the backup's own Ship hook, an infinite echo in
// mutual-replication topologies.)
//
// The handler runs directly on the RPC poller, not on a worker fiber:
// a mirror append touches only the mirror file, never this node's own
// commit path, so it can make progress even when every worker fiber is
// parked waiting on a local commit group that is itself waiting on a
// ship ack from a peer — the cycle that would otherwise deadlock two
// nodes replicating to each other.
type Backup struct {
	dir     string
	fs      vfs.FS
	key     seal.Key
	mu      sync.Mutex
	streams map[witnessKey]*mirror

	groups   *obs.Counter
	acked    *obs.Counter
	rejected *obs.Counter
}

type witnessKey struct {
	primary uint64
	stream  uint8
}

// mirror is one (primary, stream) replicated prefix: a durlog file with
// one entry per acked group — the encoded request, at entry counter =
// group seq — and the verified groups in memory (groups[i].Seq == i+1).
// A failed append poisons the log (durlog's fail-stop rule), so the
// stream refuses every later group until a restart reopens the file.
type mirror struct {
	log    *durlog.Log
	groups []*ShipRequest
	rec    [1]durlog.Entry // the one-record group ingest commits
}

func (m *mirror) seq() uint64 { return uint64(len(m.groups)) }

func (m *mirror) digest() (d [seal.HashSize]byte) {
	if len(m.groups) > 0 {
		d = m.groups[len(m.groups)-1].Digest
	}
	return d
}

// follows checks that req is the group right after the mirrored prefix.
func (m *mirror) follows(req *ShipRequest) error {
	if req.Seq != m.seq()+1 {
		return fmt.Errorf("group gap: have %d, got %d", m.seq(), req.Seq)
	}
	if ChainDigest(m.digest(), req.Entries) != req.Digest {
		return fmt.Errorf("digest mismatch at group %d", req.Seq)
	}
	return nil
}

// BackupConfig configures a backup receiver.
type BackupConfig struct {
	// Dir is the node's database directory; mirrors live in Dir/repl.
	Dir string
	// FS is the filesystem (nil = real OS).
	FS vfs.FS
	// Key is the cluster network key (the proof key is derived).
	Key seal.Key
	// Metrics, when non-nil, exports the repl.recv_* counters.
	Metrics *obs.Registry
}

// NewBackup opens a backup receiver, replaying any mirror files left by
// a previous incarnation. A torn tail is a crash artifact: durlog drops
// it. A whole record that fails its kind, signature, sequence or chain digest
// is tampering, and NewBackup refuses it with an error naming the file —
// dropping it would shorten a mirror the CAS then rejects at promotion.
func NewBackup(cfg BackupConfig) (*Backup, error) {
	fs := cfg.FS
	if fs == nil {
		fs = vfs.Default
	}
	b := &Backup{
		dir:     filepath.Join(cfg.Dir, "repl"),
		fs:      fs,
		key:     KeyFor(cfg.Key),
		streams: make(map[witnessKey]*mirror),
	}
	if m := cfg.Metrics; m != nil {
		b.groups = m.Counter("repl.recv_groups")
		b.acked = m.Counter("repl.recv_acked")
		b.rejected = m.Counter("repl.recv_rejected")
	}
	if err := fs.MkdirAll(b.dir, 0o755); err != nil {
		return nil, fmt.Errorf("repl: mkdir %s: %w", b.dir, err)
	}
	ents, err := fs.ReadDir(b.dir)
	if err != nil {
		return nil, fmt.Errorf("repl: scan %s: %w", b.dir, err)
	}
	for _, e := range ents {
		var primary uint64
		var stream uint8
		if _, err := fmt.Sscanf(e.Name(), mirrorPattern, &primary, &stream); err != nil {
			continue
		}
		if _, err := b.openMirror(primary, stream); err != nil {
			b.Close()
			return nil, err
		}
	}
	return b, nil
}

// mirrorPattern names one (primary, stream) mirror file.
const mirrorPattern = "p%d-s%d.mirror"

// mirrorKindGroup is the durlog record kind of a mirror entry: one acked
// group, its encoded ShipRequest as payload. No other kind is written, so
// a reopen refuses any other.
const mirrorKindGroup uint8 = 1

// mirrorConfig describes a mirror file to durlog: CRC frames (each group
// carries its own signature and chain digest), an immediate counter
// (nothing here is rollback-protected; the CAS witness is), and a force
// per group, since the ack is the shipper's license to stabilize.
func mirrorConfig(fs vfs.FS, path string) durlog.Config {
	return durlog.Config{FS: fs, Path: path, Level: seal.LevelNone, Counter: durlog.NewImmediateCounter(), Force: true}
}

// openMirror opens (or creates) and verifies one mirror file. Caller
// need not hold b.mu (boot only); ingest takes it.
func (b *Backup) openMirror(primary uint64, stream uint8) (*mirror, error) {
	k := witnessKey{primary, stream}
	if m := b.streams[k]; m != nil {
		return m, nil
	}
	path := filepath.Join(b.dir, fmt.Sprintf(mirrorPattern, primary, stream))
	log, replayed, err := durlog.Open(mirrorConfig(b.fs, path), -1)
	if err != nil {
		return nil, fmt.Errorf("repl: mirror %s: %w", path, err)
	}
	m := &mirror{log: log}
	for _, e := range replayed.Entries {
		req, err := DecodeShipRequest(e.Payload)
		switch {
		case e.Kind != mirrorKindGroup:
			err = fmt.Errorf("record kind %d", e.Kind)
		case err != nil: // undecodable; err says why
		case req.Primary != primary || req.Stream != stream:
			err = fmt.Errorf("group of primary %d stream %d", req.Primary, req.Stream)
		case !req.VerifySig(b.key):
			err = errors.New("bad proof signature")
		default:
			err = m.follows(req)
		}
		if err != nil {
			log.Close()
			return nil, fmt.Errorf("repl: mirror %s record %d tampered: %w", path, e.Counter, err)
		}
		m.groups = append(m.groups, req)
	}
	b.streams[k] = m
	return m, nil
}

// Handler returns the erpc handler for ReqReplShip. Register it
// directly (not via a fiber adapter): see the type comment.
func (b *Backup) Handler() erpc.Handler {
	return func(r *erpc.Request) {
		ack, errMsg := b.ingest(r.Payload)
		if errMsg != "" {
			r.ReplyError(errMsg)
			return
		}
		r.Reply(ack)
	}
}

// Ingest verifies and durably appends one encoded ship request outside
// any transport, returning the ack payload. The crash-point harness
// feeds mirrors directly through it; the RPC handler wraps the same
// path.
func (b *Backup) Ingest(payload []byte) ([]byte, error) {
	ack, errMsg := b.ingest(payload)
	if errMsg != "" {
		return nil, errors.New(errMsg)
	}
	return ack, nil
}

// ingest verifies and durably appends one shipped group, acking only
// after the mirror append is forced — the ack is the shipper's license
// to stabilize, so an unforced ack would let the stable prefix outrun
// the mirror across a backup power cut. It returns the ack payload or
// the rejection message.
func (b *Backup) ingest(payload []byte) (ack []byte, errMsg string) {
	b.groups.Inc()
	req, err := DecodeShipRequest(payload)
	if err != nil {
		b.rejected.Inc()
		return nil, err.Error()
	}
	if !req.VerifySig(b.key) {
		b.rejected.Inc()
		return nil, "repl: bad ship proof signature"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	m, err := b.openMirror(req.Primary, req.Stream)
	if err != nil {
		b.rejected.Inc()
		return nil, err.Error()
	}
	if req.Seq >= 1 && req.Seq <= m.seq() {
		// Duplicate of an already-mirrored group (a retried ship whose
		// ack was lost): idempotent ack iff it matches our history.
		if m.groups[req.Seq-1].Digest == req.Digest {
			b.acked.Inc()
			return ackPayload(m.seq()), ""
		}
		b.rejected.Inc()
		return nil, fmt.Sprintf("repl: divergent duplicate group %d", req.Seq)
	}
	if err := m.follows(req); err != nil {
		b.rejected.Inc()
		return nil, "repl: " + err.Error()
	}
	m.rec[0] = durlog.Entry{Kind: mirrorKindGroup, Payload: payload}
	err = m.log.Commit(m.rec[:], true)
	m.rec[0].Payload = nil // the transport owns payload
	if err != nil {
		b.rejected.Inc()
		return nil, fmt.Sprintf("repl: mirror append: %v", err)
	}
	own(req.Entries)
	m.groups = append(m.groups, req)
	b.acked.Inc()
	return ackPayload(m.seq()), ""
}

// own moves entry payloads out of the transport's buffer, which it may
// reuse, into one allocation the mirror keeps.
func own(entries []durlog.Entry) {
	n := 0
	for _, e := range entries {
		n += len(e.Payload)
	}
	buf := make([]byte, 0, n)
	for i, e := range entries {
		start := len(buf)
		buf = append(buf, e.Payload...)
		entries[i].Payload = buf[start:len(buf):len(buf)]
	}
}

func ackPayload(seq uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, seq)
}

// StreamState returns the mirror's replicated prefix for one stream:
// the last contiguous group sequence and the digest at it.
func (b *Backup) StreamState(primary uint64, stream uint8) (seq uint64, digest [seal.HashSize]byte, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.streams[witnessKey{primary, stream}]
	if m == nil {
		return 0, digest, false
	}
	return m.seq(), m.digest(), true
}

// DigestAt returns the mirror's running digest right after group seq
// (false if the mirror is shorter — a fork/rollback symptom).
func (b *Backup) DigestAt(primary uint64, stream uint8, seq uint64) ([seal.HashSize]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.streams[witnessKey{primary, stream}]
	if m == nil || seq == 0 || seq > m.seq() {
		return [seal.HashSize]byte{}, false
	}
	return m.groups[seq-1].Digest, true
}

// Entries returns the mirrored records of one stream in ship order
// (payloads are the mirror's own copies; callers must not mutate).
func (b *Backup) Entries(primary uint64, stream uint8) []durlog.Entry {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.streams[witnessKey{primary, stream}]
	if m == nil {
		return nil
	}
	var out []durlog.Entry
	for _, g := range m.groups {
		out = append(out, g.Entries...)
	}
	return out
}

// Close closes every mirror file.
func (b *Backup) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var first error
	for _, m := range b.streams {
		if err := m.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	b.streams = make(map[witnessKey]*mirror)
	return first
}
