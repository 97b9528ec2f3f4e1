package lsm

import (
	"fmt"
	"path/filepath"
)

// Entry kinds recorded in the WAL.
const (
	// walKindBatch is a committed write batch.
	walKindBatch uint8 = iota + 1
	// walKindPrepare is a 2PC prepared-transaction record (§V-A): the
	// participant's buffered writes plus the global transaction id.
	walKindPrepare
	// walKindOutcome resolves a previously prepared transaction in one
	// self-contained record: txid ∥ commit byte ∥ write set (on commit).
	// Replay applies the write set and marks the transaction decided in
	// one step, with no reference back to the prepare record.
	walKindOutcome
)

// encodeOutcome builds a walKindOutcome payload; writes is ignored on
// abort.
func encodeOutcome(id TxID, commit bool, writes *Batch) []byte {
	if !commit {
		return append(id[:], 0)
	}
	enc := writes.Encoded()
	out := make([]byte, 0, len(id)+1+len(enc))
	return append(append(append(out, id[:]...), 1), enc...)
}

// decodeOutcome splits a walKindOutcome payload; writes is the encoded
// write set (nil on abort).
func decodeOutcome(payload []byte) (id TxID, commit bool, writes []byte, err error) {
	if len(payload) <= len(id) {
		return id, false, nil, ErrCorruptBatch
	}
	copy(id[:], payload)
	if payload[len(id)] == 0 {
		return id, false, nil, nil
	}
	return id, true, payload[len(id)+1:], nil
}

// encodePrepare builds a walKindPrepare payload: txid ∥ write set.
func encodePrepare(id TxID, writes *Batch) []byte {
	enc := writes.Encoded()
	return append(append(make([]byte, 0, len(id)+len(enc)), id[:]...), enc...)
}

// decodePrepare splits a walKindPrepare payload into the transaction id
// and its write batch, which shares the payload.
func decodePrepare(payload []byte) (TxID, *Batch, error) {
	var id TxID
	if len(payload) < len(id) {
		return id, nil, fmt.Errorf("lsm: short prepare payload (%d bytes)", len(payload))
	}
	copy(id[:], payload)
	b, err := viewBatch(payload[len(id):])
	return id, b, err
}

// walFileName builds the WAL path for a file number.
func walFileName(dir string, number uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%06d.log", number))
}
