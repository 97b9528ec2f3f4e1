package twopc

import (
	"encoding/binary"

	"treaty/internal/erpc"
	"treaty/internal/lsm"
)

// RPC request types of the 2PC protocol.
const (
	// ReqTxnGet reads a key inside a transaction.
	ReqTxnGet uint8 = 0x10 + iota
	// ReqTxnPut writes a key inside a transaction.
	ReqTxnPut
	// ReqTxnDelete deletes a key inside a transaction.
	ReqTxnDelete
	// ReqPrepare asks a participant to prepare (lock + log + stabilize).
	// It, ReqCommit, ReqAbort and ReqTxStatus carry the global
	// transaction id as their payload (payloadTxID).
	ReqPrepare
	// ReqCommit instructs a participant to commit its prepared part.
	ReqCommit
	// ReqAbort instructs a participant to abort.
	ReqAbort
	// ReqTxStatus asks a coordinator for a transaction's decision
	// (participant-driven recovery).
	ReqTxStatus
	// ReqSlotIngest streams one chunk of a hash slot's key range from a
	// migration source to the destination node (online resharding).
	ReqSlotIngest
	// ReqReplShip streams one fsynced commit group of WAL/Clog records
	// from a shard primary to its replication backup (internal/repl).
	ReqReplShip
	// ReqCommitOnePhase commits a sole writer in one phase: its stabilized
	// WAL record is the decision. Its payload is ReqPrepare's.
	ReqCommitOnePhase
)

// flagOpensPart, in a keyed op's metadata Flags, lets the op open its
// transaction's part on the participant. The coordinator sets it on each op
// to a participant until one op there has succeeded. An op without it, for
// an id the participant does not know (its part was reclaimed, or the
// participant restarted since), fails: a fresh part would let a later
// prepare commit a partial write set. erpc keeps the low bits of Flags for
// its response marks.
const flagOpensPart uint32 = 1 << 16

// Transaction status codes returned by ReqTxStatus.
const (
	// StatusAbort: the transaction was (or must be) aborted.
	StatusAbort byte = iota
	// StatusCommit: the decision was commit.
	StatusCommit
	// StatusPending: the coordinator has not decided yet.
	StatusPending
)

// Get-response framing: found(1) ∥ value. The client protocol one layer
// up (internal/core) frames its get replies the same way.
const (
	GetNotFound byte = 0
	GetFound    byte = 1
)

// Prepare votes carried in the prepare response payload.
const (
	// voteYes: prepared and stabilized; awaiting the decision.
	voteYes byte = 0
	// voteReadOnly: the participant executed only reads — it has
	// released its locks and needs no decision (the classic read-only
	// 2PC optimization: one round instead of two for RO participants).
	voteReadOnly byte = 1
)

// globalTxID builds the cluster-unique transaction id from the
// coordinator's node id and its per-node monotonic sequence ("uniquely
// identified by a monotonically [increasing] sequence number and the
// node id", §V-A).
func globalTxID(nodeID, seq uint64) lsm.TxID {
	var id lsm.TxID
	binary.LittleEndian.PutUint64(id[:8], nodeID)
	binary.LittleEndian.PutUint64(id[8:], seq)
	return id
}

// splitTxID recovers the coordinator node id and sequence.
func splitTxID(id lsm.TxID) (nodeID, seq uint64) {
	return binary.LittleEndian.Uint64(id[:8]), binary.LittleEndian.Uint64(id[8:])
}

// payloadTxID reads the global transaction id a control message or a
// status query carries: the sender is not the coordinator when a
// successor or a recovering participant speaks for a transaction.
func payloadTxID(req *erpc.Request) (id lsm.TxID, ok bool) {
	if ok = len(req.Payload) >= len(id); ok {
		id = lsm.TxID(req.Payload[:len(id)])
	}
	return id, ok
}
