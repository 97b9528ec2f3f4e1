package lsm

import (
	"fmt"

	"treaty/internal/durlog"
)

// Replication surface: the DB exposes the exact records it appends to
// the WAL — kind, log-codec counter, raw payload — to an optional Ship
// hook so a replication shipper can forward each fsynced group to a
// backup before the group's counters stabilize. The payloads are the
// WAL's own record payloads; a backup that mirrors them byte-for-byte
// can replay them through the same state machine recovery uses.

// Exported WAL record kinds, for replication consumers that replay
// mirrored records outside this package.
const (
	// WALKindBatch is a committed write batch (payload: encoded batch).
	WALKindBatch = walKindBatch
	// WALKindPrepare is a 2PC prepared transaction (payload: 16-byte
	// txid followed by the encoded batch).
	WALKindPrepare = walKindPrepare
	// WALKindOutcome resolves a prepared transaction in one record
	// (payload: 16-byte txid, a commit byte and, on commit, the encoded
	// write set).
	WALKindOutcome = walKindOutcome
)

// ReplEntry is one WAL record as the Ship hook sees it. It is an alias,
// like NewFileCounter, kept for the frozen benchmark module.
type ReplEntry = durlog.Entry

// NewFileCounter is durlog.NewFileCounter.
var NewFileCounter = durlog.NewFileCounter

// DecodeBatch rebuilds a Batch from its encoded form (the payload of a
// WALKindBatch record, or the tail of a WALKindPrepare record). The
// encoding is validated record by record.
func DecodeBatch(data []byte) (*Batch, error) {
	recs, err := decodeBatch(data)
	if err != nil {
		return nil, err
	}
	b := NewBatch()
	for _, r := range recs {
		switch r.kind {
		case KindSet:
			b.Put(r.key, r.value)
		case KindDelete:
			b.Delete(r.key)
		}
	}
	return b, nil
}

// DecodePreparePayload splits a WALKindPrepare payload into the
// transaction id and its write batch.
func DecodePreparePayload(payload []byte) (TxID, *Batch, error) {
	var id TxID
	if len(payload) < len(id) {
		return id, nil, fmt.Errorf("lsm: short prepare payload (%d bytes)", len(payload))
	}
	copy(id[:], payload)
	b, err := DecodeBatch(payload[len(id):])
	if err != nil {
		return id, nil, err
	}
	return id, b, nil
}

// DecodeOutcomePayload splits a WALKindOutcome payload into the
// transaction id, the verdict and, on commit, the write set to apply.
func DecodeOutcomePayload(payload []byte) (TxID, bool, *Batch, error) {
	id, commit, writes, err := decodeOutcome(payload)
	if err != nil || !commit {
		return id, false, nil, err
	}
	b, err := DecodeBatch(writes)
	return id, true, b, err
}
