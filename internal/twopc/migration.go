package twopc

import (
	"encoding/binary"
	"fmt"
	"time"

	"treaty/internal/erpc"
	"treaty/internal/fibers"
	"treaty/internal/lsm"
	"treaty/internal/seal"
	"treaty/internal/shardmap"
	"treaty/internal/txn"
)

// Slot migration moves one hash slot's key range from its owning node
// (the source) to a destination, under live 2PC traffic:
//
//  1. The source fences the slot (FreezeSlot): new keyed operations on
//     it are rejected retriably while in-flight transactions drain.
//  2. Once SlotActive reaches zero, the source snapshots the slot at
//     LatestSeq and streams it to the destination in ReqSlotIngest
//     chunks. The first chunk carries a purge flag: the destination
//     deletes any keys it holds in the slot before applying, so debris
//     from an earlier aborted migration attempt cannot resurrect.
//  3. The destination applies each chunk through its engine and replies
//     only after the chunk's batch is stable — when the epoch flips,
//     the moved data is already rollback-protected on the new owner.
//  4. The orchestrator (core.Cluster.MigrateSlot) installs the next
//     epoch at the CAS, refreshes every node, and lifts the fence.
//
// A crash anywhere before step 4 leaves the map unchanged: the source
// still owns the slot, the destination holds inert (unrouted) copies,
// and a retry re-streams from scratch.

// slotChunkFirst marks the first chunk of a migration stream (the
// destination purges its copy of the slot before applying it).
const slotChunkFirst byte = 1

// maxChunkEntries bounds a decoded chunk (malformed frames must not
// drive huge allocations).
const maxChunkEntries = 1 << 20

// slotEntry is one key/value pair in a migration chunk.
type slotEntry struct {
	key, value []byte
}

// encodeSlotChunk frames: flags(1) ∥ slot(2) ∥ count(4) ∥ entries,
// each keyLen(2) ∥ valLen(4) ∥ key ∥ value.
func encodeSlotChunk(slot int, first bool, entries []slotEntry) []byte {
	n := 7
	for _, e := range entries {
		n += 6 + len(e.key) + len(e.value)
	}
	out := make([]byte, 0, n)
	flags := byte(0)
	if first {
		flags = slotChunkFirst
	}
	out = append(out, flags)
	out = binary.LittleEndian.AppendUint16(out, uint16(slot))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(entries)))
	for _, e := range entries {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(e.key)))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(e.value)))
		out = append(out, e.key...)
		out = append(out, e.value...)
	}
	return out
}

// decodeSlotChunk parses a migration chunk.
func decodeSlotChunk(b []byte) (slot int, first bool, entries []slotEntry, err error) {
	if len(b) < 7 {
		return 0, false, nil, fmt.Errorf("twopc: short slot chunk (%d bytes)", len(b))
	}
	first = b[0]&slotChunkFirst != 0
	slot = int(binary.LittleEndian.Uint16(b[1:3]))
	count := binary.LittleEndian.Uint32(b[3:7])
	if slot >= shardmap.NumSlots {
		return 0, false, nil, fmt.Errorf("twopc: slot %d out of range", slot)
	}
	if count > maxChunkEntries {
		return 0, false, nil, fmt.Errorf("twopc: chunk claims %d entries", count)
	}
	b = b[7:]
	entries = make([]slotEntry, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 6 {
			return 0, false, nil, fmt.Errorf("twopc: truncated chunk entry %d", i)
		}
		kl := int(binary.LittleEndian.Uint16(b[0:2]))
		vl := int(binary.LittleEndian.Uint32(b[2:6]))
		b = b[6:]
		if len(b) < kl+vl {
			return 0, false, nil, fmt.Errorf("twopc: truncated chunk entry %d body", i)
		}
		entries = append(entries, slotEntry{key: b[:kl], value: b[kl : kl+vl]})
		b = b[kl+vl:]
	}
	return slot, first, entries, nil
}

// StreamSlot snapshots the slot's key range at the engine's latest
// sequence and streams it to dst in chunks of at most chunkSize
// entries. At least one chunk is always sent — an empty slot still
// needs its purge flag delivered so stale destination copies die.
// onChunk, when non-nil, is invoked before each send (chaos tests kill
// the source mid-stream through it). Returns the number of keys moved.
//
// The caller must have fenced and drained the slot first; the snapshot
// is only migration-consistent once no in-flight transaction can still
// write the slot here.
func (p *Participant) StreamSlot(dst string, slot, chunkSize int, epoch uint64, f *fibers.Fiber, onChunk func(chunk int)) (int, error) {
	if chunkSize <= 0 {
		chunkSize = 256
	}
	db := p.mgr.DB()
	it, err := db.NewIterator(db.LatestSeq())
	if err != nil {
		return 0, err
	}
	var entries []slotEntry
	moved := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if shardmap.SlotOf(it.Key()) != slot {
			continue
		}
		k := append([]byte(nil), it.Key()...)
		v := append([]byte(nil), it.Value()...)
		entries = append(entries, slotEntry{key: k, value: v})
		moved++
	}
	if err := it.Err(); err != nil {
		return 0, err
	}
	chunk := 0
	for sent := 0; sent < len(entries) || chunk == 0; chunk++ {
		end := sent + chunkSize
		if end > len(entries) {
			end = len(entries)
		}
		payload := encodeSlotChunk(slot, chunk == 0, entries[sent:end])
		if onChunk != nil {
			onChunk(chunk)
		}
		md := seal.MsgMetadata{
			OpType: uint32(ReqSlotIngest),
			Epoch:  epoch,
		}
		if _, err := erpc.Call(p.ep, dst, ReqSlotIngest, md, payload, 10*time.Second, f); err != nil {
			return moved, fmt.Errorf("twopc: slot %d chunk %d to %s: %w", slot, chunk, dst, err)
		}
		sent = end
	}
	return moved, nil
}

// handleSlotIngest applies one migration chunk on the destination. The
// first chunk purges the destination's copy of the slot (stale debris
// from aborted attempts must not resurrect); every chunk's batch is
// stabilized before the reply, so an acknowledged stream is durable and
// rollback-protected before the epoch ever flips.
func (p *Participant) handleSlotIngest(f *fibers.Fiber, req *erpc.Request) {
	slot, first, entries, err := decodeSlotChunk(req.Payload)
	if err != nil {
		req.ReplyError(err.Error())
		return
	}
	db := p.mgr.DB()
	batch := lsm.NewBatch()
	if first {
		it, err := db.NewIterator(db.LatestSeq())
		if err != nil {
			req.ReplyError(err.Error())
			return
		}
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if shardmap.SlotOf(it.Key()) == slot {
				batch.Delete(append([]byte(nil), it.Key()...))
			}
		}
		if err := it.Err(); err != nil {
			req.ReplyError(err.Error())
			return
		}
	}
	for _, e := range entries {
		batch.Put(e.key, e.value)
	}
	if batch.Count() == 0 {
		req.Reply(nil)
		return
	}
	token, _, err := db.Apply(batch)
	if err != nil {
		req.ReplyError(err.Error())
		return
	}
	if err := txn.WaitToken(token, time.Time{}, f); err != nil {
		req.ReplyError(err.Error())
		return
	}
	p.ingestChunks.Inc()
	req.Reply(nil)
}
