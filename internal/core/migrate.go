package core

import (
	"fmt"
	"time"

	"treaty/internal/fibers"
	"treaty/internal/shardmap"
)

// MigrateOptions tunes MigrateSlot.
type MigrateOptions struct {
	// ChunkSize bounds keys per streamed chunk (0 = 256).
	ChunkSize int
	// DrainTimeout bounds the wait for in-flight transactions on the
	// migrating slot to finish after the fence drops (0 = 5s).
	DrainTimeout time.Duration
	// OnChunk, when non-nil, runs before each chunk is sent — the chaos
	// harness kills the source mid-stream through it.
	OnChunk func(chunk int)
}

// MigrateSlot moves one hash slot from its current owner to dstNode
// under live traffic:
//
//	fence (source) → drain → stream snapshot → install epoch+1 at the
//	CAS → refresh every node → unfence.
//
// The epoch flips only after the destination has durably applied the
// whole slot, so a crash at any earlier point leaves the old map — and
// single ownership — intact; the destination's partial copy is inert
// and is purged by the next attempt's first chunk.
func (c *Cluster) MigrateSlot(slot, dstNode int, opts MigrateOptions) error {
	if slot < 0 || slot >= shardmap.NumSlots {
		return fmt.Errorf("core: slot %d out of range", slot)
	}
	if dstNode < 0 || dstNode >= len(c.nodes) {
		return fmt.Errorf("core: no node %d", dstNode)
	}
	cur := c.cas.ShardMap()
	srcID := cur.SlotOwner(slot)
	if srcID == uint64(dstNode) {
		return nil // already there
	}
	src := c.nodes[srcID]
	dst := c.nodes[dstNode]
	if src == nil || dst == nil {
		return fmt.Errorf("core: migration endpoints down (src node %d, dst node %d)", srcID, dstNode)
	}

	// Fence: new operations on the slot are rejected retriably at the
	// source from here on. Always lift it — on success the slot is no
	// longer ours to serve anyway, on failure service must resume.
	src.part.FreezeSlot(slot)
	defer src.part.UnfreezeSlot(slot)

	// Drain: wait for in-flight transactions that touched the slot.
	drainTimeout := opts.DrainTimeout
	if drainTimeout == 0 {
		drainTimeout = 5 * time.Second
	}
	drained := func() bool { return src.part.SlotActive(slot) == 0 }
	if !fibers.Wait(drained, nil, time.Now().Add(drainTimeout), nil) {
		return fmt.Errorf("core: slot %d drain timed out", slot)
	}

	// Stream the slot's key range to the destination (durable there
	// before each chunk is acknowledged).
	if _, err := src.part.StreamSlot(dst.Addr(), slot, opts.ChunkSize, cur.Epoch+1, nil, opts.OnChunk); err != nil {
		return fmt.Errorf("core: streaming slot %d: %w", slot, err)
	}

	// Flip: sign epoch+1 at the CAS (stabilizing the trusted counter),
	// then push the new view to every live node.
	next := cur.Clone()
	next.Epoch++
	next.Slots[slot] = uint64(dstNode)
	if err := c.cas.InstallShardMap(next); err != nil {
		return fmt.Errorf("core: installing epoch %d: %w", next.Epoch, err)
	}
	c.RefreshShardMaps()
	return nil
}

// RefreshShardMaps pushes the CAS's current shard map to every live
// node (each node re-verifies it independently).
func (c *Cluster) RefreshShardMaps() {
	for _, n := range c.nodes {
		if n != nil {
			n.RefreshShardMap()
		}
	}
}

// AddNode grows the cluster by one member: the CAS registers the new
// address and signs an epoch in which the newcomer owns zero slots,
// then the node boots and attests normally. Slots are moved onto it
// with MigrateSlot afterwards.
func (c *Cluster) AddNode() (*Node, error) {
	id := len(c.nodes)
	addr := fmt.Sprintf("node-%d", id)
	if _, err := c.cas.AddNode(addr); err != nil {
		return nil, fmt.Errorf("core: CAS add node: %w", err)
	}
	cfg, err := c.nodeConfig(uint64(id), addr)
	if err != nil {
		return nil, err
	}
	n, err := StartNode(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: starting node %d: %w", id, err)
	}
	c.nodes = append(c.nodes, n)
	c.nodeCfg = append(c.nodeCfg, cfg)
	// Existing nodes learn the grown membership immediately (they would
	// otherwise catch up on the first wrong-epoch rejection).
	c.RefreshShardMaps()
	return n, nil
}
