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

// frameSlotChunk frames a migration chunk: flags(1) ∥ slot(2) ∥ the
// encoded batch of the chunk's keys.
func frameSlotChunk(slot int, first bool, b *lsm.Batch) []byte {
	flags := byte(0)
	if first {
		flags = slotChunkFirst
	}
	out := binary.LittleEndian.AppendUint16([]byte{flags}, uint16(slot))
	return append(out, b.Encoded()...)
}

// decodeSlotChunk parses a migration chunk; the batch decoder validates
// its records.
func decodeSlotChunk(b []byte) (slot int, first bool, batch *lsm.Batch, err error) {
	if len(b) < 3 {
		return 0, false, nil, fmt.Errorf("twopc: short slot chunk (%d bytes)", len(b))
	}
	slot = int(binary.LittleEndian.Uint16(b[1:3]))
	if slot >= shardmap.NumSlots {
		return 0, false, nil, fmt.Errorf("twopc: slot %d out of range", slot)
	}
	batch, err = lsm.DecodeBatch(b[3:])
	return slot, b[0]&slotChunkFirst != 0, batch, err
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
	// At least one chunk: an empty slot still sends its purge flag.
	chunks := []*lsm.Batch{lsm.NewBatch()}
	moved := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if shardmap.SlotOf(it.Key()) != slot {
			continue
		}
		if chunks[len(chunks)-1].Count() == chunkSize {
			chunks = append(chunks, lsm.NewBatch())
		}
		chunks[len(chunks)-1].Put(it.Key(), it.Value())
		moved++
	}
	if err := it.Err(); err != nil {
		return 0, err
	}
	for chunk, b := range chunks {
		payload := frameSlotChunk(slot, chunk == 0, b)
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
	}
	return moved, nil
}

// handleSlotIngest applies one migration chunk on the destination. The
// first chunk purges the destination's copy of the slot (stale debris
// from aborted attempts must not resurrect); every chunk's batch is
// stabilized before the reply, so an acknowledged stream is durable and
// rollback-protected before the epoch ever flips.
func (p *Participant) handleSlotIngest(f *fibers.Fiber, req *erpc.Request) {
	slot, first, batch, err := decodeSlotChunk(req.Payload)
	if err != nil {
		req.ReplyError(err.Error())
		return
	}
	db := p.mgr.DB()
	if first {
		chunk := batch
		batch = lsm.NewBatch()
		it, err := db.NewIterator(db.LatestSeq())
		if err != nil {
			req.ReplyError(err.Error())
			return
		}
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if shardmap.SlotOf(it.Key()) == slot {
				batch.Delete(it.Key())
			}
		}
		if err := it.Err(); err != nil {
			req.ReplyError(err.Error())
			return
		}
		chunk.Each(func(kind lsm.RecordKind, key, value []byte) error {
			if kind == lsm.KindDelete {
				batch.Delete(key)
			} else {
				batch.Put(key, value)
			}
			return nil
		})
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
	if err := token.Await(time.Time{}, f); err != nil {
		req.ReplyError(err.Error())
		return
	}
	p.ingestChunks.Inc()
	req.Reply(nil)
}
