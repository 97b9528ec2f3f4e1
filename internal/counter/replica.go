package counter

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"time"

	"treaty/internal/durlog"
	"treaty/internal/enclave"
	"treaty/internal/erpc"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/vfs"
)

// journalLimit is the journal size at which the replica writes a snapshot
// and starts the journal afresh. A record is about 110 bytes (13 header +
// 28 AEAD + 2+len(name)+8 payload + 32 chain hash, names around 25 bytes),
// so 1 MiB is roughly 9,500 confirms: at the ~2,000 confirms a second a
// loaded replica serves, one snapshot (a rewrite, a rename and three
// fsyncs: milliseconds) every ~5 s — under 0.1 % of the confirm path — and
// a boot replays at most 1 MiB, some 10 ms of hashing and AEAD.
const journalLimit = 1 << 20

// journalKindConfirm tags the journal's one record type.
const journalKindConfirm uint8 = 1

// Replica is one receiver enclave (RE) of the protection group. It keeps
// the counter values in protected (enclave) memory, echoes round-1
// updates, verifies and ACKs round-2 confirmations, and seals its state
// to persistent storage so a crashed replica recovers its view: a snapshot
// of every counter plus a journal (a durlog log) of the confirms since.
type Replica struct {
	ep   *erpc.Endpoint
	encl *enclave.Enclave
	fs   vfs.FS
	// snapPath and journalPath are empty without persistence.
	snapPath, journalPath string

	mu      sync.Mutex
	pending map[string]uint64 // round-1 values awaiting confirmation
	stable  map[string]uint64 // confirmed (sealed) values
	// journal is nil without persistence. Once it is poisoned — a failed
	// append or compaction, Close — the replica ACKs nothing any more.
	journal *durlog.Log
	rec     [1]durlog.Entry
	m       replicaMetrics
}

// replicaMetrics are nil until RegisterMetrics; recording on nil is a no-op.
type replicaMetrics struct {
	confirms, appends, compactions *obs.Counter
	persistNS                      *obs.Histogram
}

// NewReplica creates a replica serving on ep, sealing its state with
// encl into dir (empty dir disables persistence — tests). Registration
// happens immediately; drive ep's event loop to serve.
func NewReplica(ep *erpc.Endpoint, encl *enclave.Enclave, dir string) (*Replica, error) {
	return NewReplicaFS(ep, encl, vfs.Default, dir)
}

// NewReplicaFS is NewReplica over a given filesystem (tests substitute
// in-memory, fault-injecting and counting ones).
func NewReplicaFS(ep *erpc.Endpoint, encl *enclave.Enclave, fsys vfs.FS, dir string) (*Replica, error) {
	r := &Replica{
		ep:      ep,
		encl:    encl,
		fs:      fsys,
		pending: make(map[string]uint64),
		stable:  make(map[string]uint64),
	}
	if dir != "" {
		if encl == nil {
			return nil, errors.New("counter: persistent replica state needs an enclave to seal it")
		}
		r.snapPath = filepath.Join(dir, fmt.Sprintf("counter-state-%d.sealed", ep.NodeID()))
		r.journalPath = filepath.Join(dir, fmt.Sprintf("counter-state-%d.journal", ep.NodeID()))
		if err := r.load(); err != nil {
			return nil, err
		}
	}
	ep.Register(reqUpdate, r.onUpdate)
	ep.Register(reqConfirm, r.onConfirm)
	ep.Register(reqQuery, r.onQuery)
	return r, nil
}

// RegisterMetrics exports the replica's persistence cost into reg under
// "counter.replica.*": confirms handled, journal appends, the journal's
// size, snapshot compactions, and the time a value-raising confirm spent
// persisting before its ACK.
func (r *Replica) RegisterMetrics(reg *obs.Registry) {
	m := replicaMetrics{
		confirms:    reg.Counter("counter.replica.confirms"),
		appends:     reg.Counter("counter.replica.journal_appends"),
		compactions: reg.Counter("counter.replica.compactions"),
		persistNS:   reg.Histogram("counter.replica.persist_ns"),
	}
	reg.GaugeFunc("counter.replica.journal_bytes", r.journalSize)
	r.mu.Lock()
	r.m = m
	r.mu.Unlock()
}

// journalSize is the journal file's length (0 without persistence).
func (r *Replica) journalSize() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.journal == nil {
		return 0
	}
	return r.journal.Size()
}

// onUpdate handles round 1: store the value in protected memory and echo.
func (r *Replica) onUpdate(req *erpc.Request) {
	name, v, err := decodeReq(req.Payload)
	if err != nil {
		req.ReplyError(err.Error())
		return
	}
	r.mu.Lock()
	if v > r.pending[name] {
		r.pending[name] = v
	}
	echo := r.pending[name]
	r.mu.Unlock()
	req.Reply(binary.LittleEndian.AppendUint64(nil, echo))
}

// onConfirm handles round 2: verify the received value matches the one
// stored in memory, seal it, and (N)ACK.
func (r *Replica) onConfirm(req *erpc.Request) {
	name, v, err := decodeReq(req.Payload)
	if err != nil {
		req.ReplyError(err.Error())
		return
	}
	ack, err := r.confirm(name, v)
	if err != nil {
		req.ReplyError(err.Error())
		return
	}
	req.Reply(binary.LittleEndian.AppendUint64(nil, ack))
}

// confirm verifies v against the echoed value and raises the counter's
// stable value to it, journaling the raise before it returns: the ACK must
// not leave before a crashed replica would still report the value. A
// confirm that raises nothing is already journaled and costs no I/O.
func (r *Replica) confirm(name string, v uint64) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m.confirms.Inc()
	stored := r.pending[name]
	if stored < v {
		// We never echoed this value: NACK (the SE's quorum must not
		// count us).
		return 0, fmt.Errorf("counter: confirm for unseen value %d (have %d)", v, stored)
	}
	if r.journal != nil {
		if err := r.journal.Poisoned(); err != nil {
			return 0, err
		}
	}
	if v > r.stable[name] {
		if err := r.persistLocked(name, v); err != nil {
			return 0, err
		}
	}
	return r.stable[name], nil
}

// persistLocked appends the raise of name to v to the journal — one sealed
// record, one write — and then raises the stable value; past journalLimit
// it compacts. Any failure fail-stops the replica's persistence.
func (r *Replica) persistLocked(name string, v uint64) error {
	if r.journal == nil {
		r.stable[name] = v
		return nil
	}
	defer r.m.persistNS.ObserveSince(time.Now())
	r.rec[0] = durlog.Entry{Kind: journalKindConfirm, Payload: encodeReq(name, v)}
	if err := r.journal.Commit(r.rec[:], false); err != nil {
		return fmt.Errorf("counter: journaling state: %w", err)
	}
	r.stable[name] = v
	r.m.appends.Inc()
	if r.journal.Size() < journalLimit {
		return nil
	}
	if err := r.compactLocked(); err != nil {
		r.journal.Abandon()
		return fmt.Errorf("counter: compacting state: %w", err)
	}
	return nil
}

// compactLocked writes the whole state as the snapshot and starts the
// journal afresh, in that order: the forced snapshot covers every record of
// the journal it replaces, and recovery merges snapshot and journal by
// per-name maximum, so a crash after any step — new snapshot beside the
// old journal, snapshot and no journal, snapshot and empty journal — loads
// the same values.
func (r *Replica) compactLocked() error {
	if err := r.writeSnapshotLocked(); err != nil {
		return err
	}
	if err := r.journal.Close(); err != nil {
		return err
	}
	if err := r.fs.Remove(r.journalPath); err != nil {
		return err
	}
	fresh, err := durlog.Create(r.journalConfig())
	if err != nil {
		return err
	}
	r.journal = fresh
	r.m.compactions.Inc()
	return nil
}

// onQuery handles recovery reads.
func (r *Replica) onQuery(req *erpc.Request) {
	name, _, err := decodeReq(req.Payload)
	if err != nil {
		req.ReplyError(err.Error())
		return
	}
	r.mu.Lock()
	v := r.stable[name]
	r.mu.Unlock()
	req.Reply(binary.LittleEndian.AppendUint64(nil, v))
}

// journalConfig describes the journal to durlog: frames encrypted under a
// key derived from the enclave's sealing key, no fsync per record (ROTE's
// process-crash model; the only durlog log that does not force), and a
// counter that is stable at once — nothing stabilizes a trusted counter's
// own log.
func (r *Replica) journalConfig() durlog.Config {
	return durlog.Config{
		FS: r.fs, Path: r.journalPath,
		Level: seal.LevelEncrypted, Key: r.encl.SealingKey("counter-journal"),
		Runtime: r.encl.Runtime(), Counter: durlog.NewImmediateCounter(),
	}
}

// encodeStateLocked serializes the stable map (r.mu held).
func (r *Replica) encodeStateLocked() []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, uint32(len(r.stable)))
	for name, v := range r.stable {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(name)))
		out = append(out, name...)
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	return out
}

// writeSnapshotLocked seals the whole state and replaces the snapshot file
// with it: write-temp + fsync + rename, so a crash leaves the old snapshot
// or the new one, never a torn file, and the journal the caller is about
// to unlink is never the only forced copy.
func (r *Replica) writeSnapshotLocked() error {
	tmp := r.snapPath + ".tmp"
	_ = r.fs.Remove(tmp) // what an interrupted compaction left; Create is exclusive
	f, err := r.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(r.encl.Seal(r.encodeStateLocked())); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return r.fs.Rename(tmp, r.snapPath)
}

// load restores sealed state after a restart: the snapshot, then the
// journal replayed over it with a per-name maximum (a record may be older
// than the snapshot, see compactLocked). The journal is left open for
// append.
func (r *Replica) load() error {
	if err := r.loadSnapshot(); err != nil {
		return err
	}
	// No trusted value exists for a trusted counter's own journal, and every
	// record whose write returned may have been ACKed: replay keeps them all,
	// drops nothing but a byte-truncated final record, and refuses anything
	// else (durlog's tear policy at maxStable -1).
	journal, replayed, err := durlog.Open(r.journalConfig(), -1)
	if err != nil {
		if errors.Is(err, seal.ErrChainBroken) || errors.Is(err, seal.ErrCounterGap) || errors.Is(err, seal.ErrIntegrity) {
			return fmt.Errorf("counter: sealed journal: %w: %v", enclave.ErrSealedTampered, err)
		}
		return fmt.Errorf("counter: opening journal: %w", err)
	}
	for _, e := range replayed.Entries {
		name, v, derr := decodeReq(e.Payload)
		if derr != nil {
			_ = journal.Close()
			return fmt.Errorf("counter: sealed journal: %w: record %d: %v", enclave.ErrSealedTampered, e.Counter, derr)
		}
		if v > r.stable[name] {
			r.stable[name] = v
		}
	}
	for name, v := range r.stable {
		r.pending[name] = v
	}
	r.journal = journal
	return nil
}

// loadSnapshot reads the sealed whole-state file, if there is one.
func (r *Replica) loadSnapshot() error {
	data, err := r.fs.ReadFile(r.snapPath)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("counter: loading state: %w", err)
	}
	data, err = r.encl.Unseal(data)
	if err != nil {
		return fmt.Errorf("counter: sealed state: %w", err)
	}
	if len(data) < 4 {
		return fmt.Errorf("counter: short state file")
	}
	n := binary.LittleEndian.Uint32(data)
	off := 4
	for i := uint32(0); i < n; i++ {
		if off+2 > len(data) {
			return fmt.Errorf("counter: truncated state file")
		}
		nameLen := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+nameLen+8 > len(data) {
			return fmt.Errorf("counter: truncated state file")
		}
		name := string(data[off : off+nameLen])
		off += nameLen
		r.stable[name] = binary.LittleEndian.Uint64(data[off:])
		off += 8
	}
	return nil
}

// Close ends the replica's persistence: the journal is closed and every
// later confirm is NACKed.
func (r *Replica) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.journal == nil {
		return nil
	}
	err := r.journal.Close()
	r.journal.Abandon()
	return err
}

// StableValue reports the replica's confirmed value for a counter
// (test/inspection hook).
func (r *Replica) StableValue(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stable[name]
}
