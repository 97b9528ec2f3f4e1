package erpc

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
)

// NextOpID allocates the operation id of an outgoing request: the "op" of
// the (node, tx, op) tuple receivers execute at most once. Ids count up
// from a per-boot random seed, so a restarted node's requests — retries
// above all — never collide with pre-crash tuples still held in its
// peers' replay caches, and everything that sends through the endpoint
// (coordinator, migration streamer, recovery resolver, shipper, counter
// client) draws from the one sequence, so they cannot collide with each
// other either.
func (ep *Endpoint) NextOpID() uint64 { return ep.nextOp.Add(1) }

// seedOpID draws the allocator's per-boot starting point: 63 random bits,
// leaving a boot 2^63 ids before the sequence could wrap.
func seedOpID() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("erpc: op-id seed: %w", err)
	}
	return binary.LittleEndian.Uint64(b[:]) >> 1, nil
}
