package erpc

import (
	"sync"

	"treaty/internal/seal"
)

// opKey identifies one operation for at-most-once execution: the paper's
// "unique tuple of the node's, Tx and operation ids".
type opKey struct {
	node, tx, op uint64
}

// replayCache enforces at-most-once execution and allows idempotent
// re-replies. It holds a bounded set of executed operation keys and, for
// those that have replied, the cached wire response. Eviction is
// generational (two half-windows) so the common case is lock + two map
// lookups.
type replayCache struct {
	mu       sync.Mutex
	capacity int
	cur      map[opKey][]byte
	prev     map[opKey][]byte
}

// replayWindow bounds an endpoint's at-most-once dedup cache.
const replayWindow = 65536

// newReplayCache creates a cache bounded to roughly capacity entries.
func newReplayCache(capacity int) *replayCache {
	return &replayCache{
		capacity: capacity,
		cur:      make(map[opKey][]byte),
		prev:     make(map[opKey][]byte),
	}
}

// keyOf builds the dedup key from message metadata.
func keyOf(md seal.MsgMetadata) opKey {
	return opKey{node: md.NodeID, tx: md.TxID, op: md.OpID}
}

// check records the operation and reports whether it was already seen.
// For an operation that was seen *and* has a cached reply, the reply wire
// bytes are returned for retransmission.
func (rc *replayCache) check(md seal.MsgMetadata) (cachedReply []byte, duplicate bool) {
	k := keyOf(md)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if resp, ok := rc.cur[k]; ok {
		return resp, true
	}
	if resp, ok := rc.prev[k]; ok {
		return resp, true
	}
	if len(rc.cur) >= rc.capacity/2 {
		rc.prev = rc.cur
		rc.cur = make(map[opKey][]byte, rc.capacity/2)
	}
	rc.cur[k] = nil
	return nil, false
}

// storeReply caches the wire response for an executed operation.
func (rc *replayCache) storeReply(md seal.MsgMetadata, wire []byte) {
	k := keyOf(md)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if _, ok := rc.cur[k]; ok {
		rc.cur[k] = wire
		return
	}
	if _, ok := rc.prev[k]; ok {
		rc.prev[k] = wire
	}
}
