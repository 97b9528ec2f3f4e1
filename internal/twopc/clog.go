// Package twopc implements Treaty's secure two-phase commit protocol for
// distributed transactions (§V) and its stabilization-integrated recovery
// (§VI). A transaction coordinator (TxC) drives each global transaction:
// it routes operations to participant nodes over the secure RPC layer,
// logs its commit decisions to the Clog with trusted-counter binding, and
// commits only after every participant's prepare entry — and its own
// decision entry — are rollback-protected. A prepared participant
// resolves an in-doubt part by asking the coordinator, which only
// answers. Both roles run one pure transition function, step (step.go);
// DistTxn and Participant perform its effects.
package twopc

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"

	"treaty/internal/durlog"
	"treaty/internal/enclave"
	"treaty/internal/lsm"
	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/vfs"
)

// ClogKindDecision is the record kind for harnesses that drive Append
// directly (the crash-point harness appends synthetic decisions).
const ClogKindDecision = clogDecision

// ErrClogClosed indicates an append against a closed coordinator log.
var ErrClogClosed = errors.New("twopc: clog closed")

// ClogEntry is one recovered coordinator-log record.
type ClogEntry struct {
	// Kind is clogDecision.
	Kind uint8
	// TxID is the global transaction id.
	TxID lsm.TxID
	// Commit is the decision.
	Commit bool
	// Participants lists the writers the decision goes to.
	Participants []string
	// Counter is the entry's trusted counter value.
	Counter uint64
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
	token durlog.StableToken
	err   error
}

// clogReq is one entry enqueued for the group-commit leader.
type clogReq struct {
	kind    uint8
	payload []byte
	done    chan clogRes
}

// Clog is the coordinator log: it keeps the 2PC protocol state in a
// durlog.Log — the same framing, hash chaining, and trusted-counter
// binding as the WAL and MANIFEST, forced on every group. Appends from
// concurrent coordinator fibers are group-committed through a
// durlog.Queue.
type Clog struct {
	log    *durlog.Log
	queue  *durlog.Queue[*clogReq]
	staged []durlog.Entry // the leader's scratch slice of the group's entries

	// tornDropped records that opening found and dropped a crash-torn
	// tail.
	tornDropped bool
}

// clogName builds the Clog path.
func clogName(dir string) string { return filepath.Join(dir, "CLOG-000001") }

// OpenClog creates or re-opens the coordinator log. Existing entries are
// replayed (verifying chain, counters, and freshness against maxStable;
// pass -1 to skip freshness) and returned to seed the coordinator's status
// table; a crash-torn or unstabilized tail is dropped (see durlog.Open):
// nobody was acknowledged on its strength, so its transactions are
// presumed aborted. fs nil uses the real filesystem.
func OpenClog(fs vfs.FS, dir string, level seal.SecurityLevel, key seal.Key, rt *enclave.Runtime, ctr durlog.TrustedCounter, maxStable int64) (*Clog, []ClogEntry, error) {
	log, replayed, err := durlog.Open(durlog.Config{
		FS: fs, Path: clogName(dir), Level: level, Key: key, Runtime: rt, Counter: ctr, Force: true,
	}, maxStable)
	if err != nil {
		return nil, nil, err
	}
	entries, err := DecodeClogRecords(replayed.Entries)
	if err != nil {
		return nil, nil, err
	}
	c := &Clog{log: log, tornDropped: replayed.Torn}
	c.queue = durlog.NewQueue(c.commitGroup)
	return c, entries, nil
}

// DecodeClogRecords decodes Clog records: replayed from this node's
// log, or mirrored from a dead peer's.
func DecodeClogRecords(recs []durlog.Entry) ([]ClogEntry, error) {
	var out []ClogEntry
	for _, r := range recs {
		if r.Kind == 1 { // an older log's prepare-start record, which presumed abort reads as nothing
			continue
		}
		if r.Kind != clogDecision {
			return nil, fmt.Errorf("twopc: unknown clog record kind %d", r.Kind)
		}
		txID, commit, parts, err := decodeClogPayload(r.Payload)
		if err != nil {
			return nil, err
		}
		out = append(out, ClogEntry{Kind: r.Kind, TxID: txID, Commit: commit, Participants: parts, Counter: r.Counter})
	}
	return out, nil
}

// ClogTuning adjusts the group-commit leader.
type ClogTuning struct {
	// Metrics, when non-nil, exports the append/sync counters and the
	// "twopc.clog.group_size" histogram.
	Metrics *obs.Registry
	// Ship, when non-nil, receives every commit group between its force
	// and its counter round (see durlog.Hooks.Ship).
	Ship func([]durlog.Entry)
}

// Configure applies tuning. It must be called before the first Append.
func (c *Clog) Configure(t ClogTuning) {
	m := t.Metrics
	c.queue.Sizes = m.Histogram("twopc.clog.group_size")
	c.log.SetHooks(durlog.Hooks{
		Ship:        t.Ship,
		Appends:     m.Counter("twopc.clog.appends"),
		Syncs:       m.Counter("twopc.clog.syncs"),
		SyncLatency: m.Histogram("twopc.clog.sync.latency_ns"),
	})
	m.GaugeFunc("twopc.clog.appended_lsn", func() int64 { return int64(c.log.LastCounter()) })
	m.GaugeFunc("twopc.clog.stable_lsn", func() int64 { return int64(c.log.StableValue()) })
	m.AtMost("twopc.clog", "twopc.clog.stable_lsn", "twopc.clog.appended_lsn") // §VI: stable only past a durable append
}

// TornTailDropped reports whether opening dropped a crash-torn tail (a
// detected-corruption event for the observability layer).
func (c *Clog) TornTailDropped() bool { return c.tornDropped }

// Append logs one entry via the group-commit leader and returns a token
// the caller can wait on ("Every Tx/operation is logged to Clog with its
// own unique trusted counter value"). The call returns once the entry's
// group has been written AND forced — an acknowledged append is durable —
// and every group demands a trusted-counter round. The Clog is fail-stop:
// see durlog's invariants.
func (c *Clog) Append(kind uint8, txID lsm.TxID, commit bool, participants []string) (durlog.StableToken, error) {
	return c.appendAll(kind, ClogEntry{TxID: txID, Commit: commit, Participants: participants})
}

// appendAll submits every entry before it waits on the last, so a batch
// commits in as few groups as the leader allows, and returns the last
// one's token. The log is fail-stop, so the last one's success covers
// every earlier one. entries must not be empty.
func (c *Clog) appendAll(kind uint8, entries ...ClogEntry) (durlog.StableToken, error) {
	var req *clogReq
	for _, e := range entries {
		req = &clogReq{kind: kind, payload: encodeClogPayload(e.TxID, e.Commit, e.Participants), done: make(chan clogRes, 1)}
		if !c.queue.Submit(req) {
			return durlog.StableToken{}, cmp.Or(c.log.Poisoned(), ErrClogClosed)
		}
	}
	res := <-req.done
	return res.token, res.err
}

// commitGroup commits one group of appends and completes its waiters.
func (c *Clog) commitGroup(group []*clogReq) {
	entries := c.staged[:0]
	for _, req := range group {
		entries = append(entries, durlog.Entry{Kind: req.kind, Payload: req.payload})
	}
	err := c.log.Commit(entries, true)
	c.staged = entries
	for i, req := range group {
		if err != nil {
			req.done <- clogRes{err: err}
			continue
		}
		req.done <- clogRes{token: c.log.Token(entries[i].Counter, true)}
	}
}

// Abandon crash-stops the log: queued and future appends fail without
// touching the file, and the call returns only after the leader exits,
// so no write can reach the file afterwards (see durlog.Log.Abandon).
func (c *Clog) Abandon() {
	c.log.Abandon()
	c.queue.Close()
}

// Close drains the leader and closes the log, which stabilizes its tail.
// A poisoned log never reports a clean close.
func (c *Clog) Close() error {
	if !c.queue.Close() {
		return nil
	}
	return c.log.Close()
}

// Poisoned returns the Clog's fail-stop error, if any (Abandon sets one).
func (c *Clog) Poisoned() error { return c.log.Poisoned() }

// LastCounter returns the counter value of the most recent entry.
func (c *Clog) LastCounter() uint64 { return c.log.LastCounter() }

// SyncedCounter returns the highest counter value known forced to stable
// storage (test hook for the ordering invariant: acknowledged tokens
// never exceed it).
func (c *Clog) SyncedCounter() uint64 { return c.log.SyncedCounter() }

// Stable reports whether every appended entry is rollback-protected:
// with no prepare record logged, the one precondition left for deleting
// the Clog (§VI: "as long as there are no unstable entries").
func (c *Clog) Stable() bool { return c.log.StableValue() >= c.log.LastCounter() }
