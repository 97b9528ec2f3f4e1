package chaos

import (
	"fmt"
	"time"

	"treaty/internal/core"
	"treaty/internal/shardmap"
)

// Resharding faults: online slot migrations injected as soak rounds, so
// epoch flips happen underneath live audited 2PC traffic. Two shapes:
//
//   - migrateLiveFault runs a full migration to completion mid-round and
//     asserts the whole cluster converged on the flipped map.
//   - killMigrationSourceFault kills the slot's owner mid-stream, then
//     asserts the crash left the old epoch — and single ownership —
//     intact, restarts the source, and re-runs the migration to
//     completion (the retry's first chunk purges any partial copy the
//     aborted attempt left on the destination).
//
// Both pick a slot that holds seeded bank keys, so the fenced window and
// the epoch flip are guaranteed to sit in the workload's way; the
// rejection counters they accumulate let the soak prove the fence and
// the epoch checks actually fired.

// hotSlot returns a slot holding at least minKeys seeded bank keys whose
// current owner is not dst (-1 if none qualifies).
func (h *Harness) hotSlot(cur *shardmap.Map, dst int, minKeys int) int {
	perSlot := make(map[int]int)
	for i := 0; i < h.cfg.Accounts; i++ {
		perSlot[shardmap.SlotOf(accountKey(i))]++
	}
	for w := 0; w < h.cfg.Workers; w++ {
		perSlot[shardmap.SlotOf(workerKey(w))]++
	}
	best, bestKeys := -1, 0
	for slot, keys := range perSlot {
		if keys >= minKeys && int(cur.SlotOwner(slot)) != dst && keys > bestKeys {
			best, bestKeys = slot, keys
		}
	}
	return best
}

// fenceRejections sums the shard-routing rejection counters on node i's
// current incarnation (0 if the node is down).
func (h *Harness) fenceRejections(i int) uint64 {
	h.nodesMu.RLock()
	n := h.cluster.Node(i)
	h.nodesMu.RUnlock()
	if n == nil {
		return 0
	}
	s := n.Snapshot()
	return s.Counter("shardmap.fence_rejected") + s.Counter("shardmap.stale_epoch_rejected")
}

// migrateLiveFault migrates one hot slot to dst while the round's
// traffic runs. Rejections is the running total of fence/stale-epoch
// rejections its rounds observed at the source.
type migrateLiveFault struct {
	dst int

	// Per-round state.
	slot, src int
	wantEpoch uint64
	base      uint64
	done      chan error

	// Accumulated across rounds (the soak asserts non-vacuity on these).
	Migrated   int
	Rejections uint64
}

func (f *migrateLiveFault) Name() string { return fmt.Sprintf("migrate-slot-to-node-%d", f.dst) }

func (f *migrateLiveFault) Inject(h *Harness) {
	cur := h.cluster.CAS().ShardMap()
	f.slot = h.hotSlot(cur, f.dst, 1)
	f.done = make(chan error, 1)
	if f.slot < 0 {
		f.done <- fmt.Errorf("chaos: no migratable slot away from node %d", f.dst)
		return
	}
	f.src = int(cur.SlotOwner(f.slot))
	f.wantEpoch = cur.Epoch + 1
	f.base = h.fenceRejections(f.src)
	end := time.Now().Add(h.cfg.RoundDuration)
	go func() {
		// Let the round's traffic get going before the fence drops, then
		// hold the fence until a live transaction has collided with it at
		// the source — the soak's non-vacuity check, met by construction —
		// or the round's traffic ends.
		time.Sleep(h.cfg.RoundDuration / 4)
		f.done <- h.cluster.MigrateSlot(f.slot, f.dst, core.MigrateOptions{
			ChunkSize: 1,
			OnChunk: func(int) {
				for h.fenceRejections(f.src) == f.base && time.Now().Before(end) {
					time.Sleep(time.Millisecond)
				}
			},
		})
	}()
}

func (f *migrateLiveFault) Lift(h *Harness) error {
	if err := <-f.done; err != nil {
		return err
	}
	f.Rejections += h.fenceRejections(f.src) - f.base
	f.Migrated++
	// The whole cluster — not just the CAS — must have converged on the
	// flipped map.
	if got := h.cluster.CAS().ShardMap(); got.Epoch != f.wantEpoch || int(got.SlotOwner(f.slot)) != f.dst {
		return fmt.Errorf("chaos: CAS map after migration: epoch=%d owner=%d, want epoch=%d owner=%d",
			got.Epoch, got.SlotOwner(f.slot), f.wantEpoch, f.dst)
	}
	h.nodesMu.RLock()
	defer h.nodesMu.RUnlock()
	for i := 0; i < h.cluster.Nodes(); i++ {
		n := h.cluster.Node(i)
		if n == nil {
			continue
		}
		view := n.Shard().View()
		if view.Epoch != f.wantEpoch || int(view.SlotOwner(f.slot)) != f.dst {
			return fmt.Errorf("chaos: node %d view after migration: epoch=%d owner=%d, want epoch=%d owner=%d",
				i, view.Epoch, view.SlotOwner(f.slot), f.wantEpoch, f.dst)
		}
	}
	return nil
}

// killMigrationSourceFault starts a migration and crashes the source
// node from the chunk callback, mid-stream. The epoch must not flip, the
// slot must still have exactly its old owner, and after the source
// restarts a retry must complete cleanly.
type killMigrationSourceFault struct {
	dst int

	slot, src int
	preEpoch  uint64
	done      chan error
	skipped   bool

	// Kills counts rounds that actually crashed a source mid-stream.
	Kills int
}

func (f *killMigrationSourceFault) Name() string {
	return fmt.Sprintf("kill-migration-source-to-node-%d", f.dst)
}

func (f *killMigrationSourceFault) Inject(h *Harness) {
	// Prefer a slot with ≥2 keys so the kill lands between chunks: the
	// destination is left holding a partial copy that the retry's purge
	// must clear. Fall back to killing before the first chunk.
	cur := h.cluster.CAS().ShardMap()
	killAt := 1
	f.slot = h.hotSlot(cur, f.dst, 2)
	if f.slot < 0 {
		killAt = 0
		f.slot = h.hotSlot(cur, f.dst, 1)
	}
	f.done = make(chan error, 1)
	f.skipped = f.slot < 0
	if f.skipped {
		f.done <- nil
		return
	}
	f.src = int(cur.SlotOwner(f.slot))
	f.preEpoch = cur.Epoch
	go func() {
		time.Sleep(h.cfg.RoundDuration / 4)
		f.done <- h.cluster.MigrateSlot(f.slot, f.dst, core.MigrateOptions{
			ChunkSize: 1,
			OnChunk: func(chunk int) {
				if chunk == killAt {
					h.crashNode(f.src)
				}
			},
		})
	}()
}

func (f *killMigrationSourceFault) Lift(h *Harness) error {
	err := <-f.done
	if f.skipped {
		return nil
	}
	if err == nil {
		return fmt.Errorf("chaos: migration of slot %d survived its source being killed mid-stream", f.slot)
	}
	// Crash before the flip: the old map — and single ownership — hold.
	if got := h.cluster.CAS().ShardMap(); got.Epoch != f.preEpoch || int(got.SlotOwner(f.slot)) != f.src {
		return fmt.Errorf("chaos: killed migration moved the map: epoch=%d owner=%d, want epoch=%d owner=%d",
			got.Epoch, got.SlotOwner(f.slot), f.preEpoch, f.src)
	}
	if err := h.restartNode(f.src); err != nil {
		return err
	}
	f.Kills++
	// The retry streams from scratch; its first chunk purges whatever the
	// killed attempt left on the destination.
	if err := h.cluster.MigrateSlot(f.slot, f.dst, core.MigrateOptions{ChunkSize: 1}); err != nil {
		return fmt.Errorf("chaos: retrying migration after source restart: %w", err)
	}
	if got := h.cluster.CAS().ShardMap(); got.Epoch != f.preEpoch+1 || int(got.SlotOwner(f.slot)) != f.dst {
		return fmt.Errorf("chaos: retried migration: epoch=%d owner=%d, want epoch=%d owner=%d",
			got.Epoch, got.SlotOwner(f.slot), f.preEpoch+1, f.dst)
	}
	return nil
}

// ReshardScript builds the migration soak mix: live migrations and
// kill-mid-stream rounds interleaved with network adversity, cycling the
// destination across nodes. The returned faults carry the accumulated
// non-vacuity counters after the run.
func ReshardScript(rounds, nodes int) []Fault {
	if nodes < 2 {
		nodes = 2
	}
	script := make([]Fault, 0, rounds)
	for i := 0; len(script) < rounds; i++ {
		cycle := []Fault{
			&migrateLiveFault{dst: i % nodes},
			lossFault{rate: 0.20},
			&killMigrationSourceFault{dst: (i + 1) % nodes},
			delayDupFault{},
		}
		for _, f := range cycle {
			if len(script) == rounds {
				break
			}
			script = append(script, f)
		}
	}
	return script
}
