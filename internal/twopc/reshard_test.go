package twopc

import (
	"fmt"
	"testing"

	"treaty/internal/shardmap"
)

// keyInSlotOwnedBy finds a key routed to slot owned by addr.
func (tc *testCluster) keyInSlotOwnedBy(addr string) (string, int) {
	view := tc.shard.View()
	for i := 0; ; i++ {
		k := fmt.Sprintf("reshard-%d", i)
		if view.Owner([]byte(k)) == addr {
			return k, shardmap.SlotOf([]byte(k))
		}
	}
}

// flipEpoch installs the successor map moving slot to newOwner.
func (tc *testCluster) flipEpoch(slot int, newOwner uint64) {
	next := tc.shard.View().Clone()
	next.Epoch++
	next.Counter = next.Epoch
	next.Slots[slot] = newOwner
	tc.shard.Store(next)
}

// counterOn reads one counter of node i's registry.
func (tc *testCluster) counterOn(i int, name string) uint64 {
	return tc.nodes[i].reg.Snapshot().Counter(name)
}

// TestParticipantRejectsStaleEpoch: a transaction pinned to epoch N
// keeps sending N after the cluster flips to N+1, or sends a hand-built
// unversioned (epoch 0) put; the owner must reject it retriably and fire
// shardmap.stale_epoch_rejected. Node-0 coordinates, so an owner of 0 is
// the local call and an owner of 1 a request.
func TestParticipantRejectsStaleEpoch(t *testing.T) {
	for _, c := range []struct {
		name   string
		owner  int
		epoch0 bool
	}{{"local", 0, false}, {"remote", 1, false}, {"epoch0-local", 0, true}, {"epoch0-remote", 1, true}} {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestCluster(t, 3)
			key, slot := tc.keyInSlotOwnedBy(tc.nodes[c.owner].addr)
			stale := tc.nodes[0].coord.Begin(nil) // pins epoch 1

			var err error
			if c.epoch0 {
				stale.view = nil // unpinned: the put is stamped epoch 0
				_, err = stale.call(tc.nodes[c.owner].addr, ReqTxnPut, []byte(key), []byte("v"))
			} else {
				// Epoch flips (slot keeps its owner — only the epoch moves,
				// so the rejection is purely the epoch check, not an
				// ownership change).
				tc.flipEpoch(slot, tc.shard.View().SlotOwner(slot))
				err = stale.Put([]byte(key), []byte("v"))
			}
			if !IsWrongEpoch(err) {
				t.Fatalf("want wrong-epoch error, got: %v", err)
			}
			if tc.counterOn(c.owner, "shardmap.stale_epoch_rejected") == 0 {
				t.Error("shardmap.stale_epoch_rejected did not fire on the owner")
			}
			_ = stale.Rollback()

			// A fresh transaction picks up the current epoch and proceeds.
			fresh := tc.nodes[0].coord.Begin(nil)
			if fresh.Epoch() != tc.shard.View().Epoch {
				t.Fatalf("fresh txn epoch = %d, want %d", fresh.Epoch(), tc.shard.View().Epoch)
			}
			if err := fresh.Put([]byte(key), []byte("v2")); err != nil {
				t.Fatalf("fresh-epoch put: %v", err)
			}
			if err := fresh.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestParticipantRejectsMisroutedKey: an operation carrying the right
// epoch but addressed to a node that does not own the key's slot is
// rejected (a confused or malicious router cannot write through the
// wrong owner) — by node-0's own participant on the local call, or by
// node-2 on a request.
func TestParticipantRejectsMisroutedKey(t *testing.T) {
	for _, c := range []struct {
		name string
		to   int
	}{{"local", 0}, {"remote", 2}} {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestCluster(t, 3)
			key, _ := tc.keyInSlotOwnedBy("node-1")

			tx := tc.nodes[0].coord.Begin(nil)
			// Bypass the router: call another node directly with node-1's key.
			_, err := tx.call(tc.nodes[c.to].addr, ReqTxnPut, []byte(key), []byte("v"))
			if !IsWrongEpoch(err) {
				t.Fatalf("want wrong-epoch rejection, got: %v", err)
			}
			if tc.counterOn(c.to, "shardmap.stale_epoch_rejected") == 0 {
				t.Error("shardmap.stale_epoch_rejected did not fire on the misrouted node")
			}
			_ = tx.Rollback()
		})
	}
}

// TestSlotFenceRejectsAndLifts: a fenced slot refuses new operations
// retriably, on the coordinator's own node or another; lifting the fence
// restores service.
func TestSlotFenceRejectsAndLifts(t *testing.T) {
	for _, c := range []struct {
		name  string
		owner int
	}{{"local", 0}, {"remote", 2}} {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestCluster(t, 3)
			owner := tc.nodes[c.owner]
			key, slot := tc.keyInSlotOwnedBy(owner.addr)

			owner.part.FreezeSlot(slot)
			tx := tc.nodes[0].coord.Begin(nil)
			if err := tx.Put([]byte(key), []byte("v")); !IsSlotFenced(err) {
				t.Fatalf("want fence rejection, got: %v", err)
			}
			_ = tx.Rollback()
			if tc.counterOn(c.owner, "shardmap.fence_rejected") == 0 {
				t.Error("shardmap.fence_rejected did not fire")
			}

			owner.part.UnfreezeSlot(slot)
			tx2 := tc.nodes[0].coord.Begin(nil)
			if err := tx2.Put([]byte(key), []byte("v")); err != nil {
				t.Fatalf("put after unfence: %v", err)
			}
			if err := tx2.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSlotMigrationMovesKeys runs the full migration protocol at the
// twopc layer: fence, drain, stream, flip, unfence — then every key in
// the moved slot must read back through the new owner.
func TestSlotMigrationMovesKeys(t *testing.T) {
	tc := newTestCluster(t, 3)

	// Seed data across all slots.
	want := make(map[string]string)
	tx := tc.nodes[0].coord.Begin(nil)
	for i := 0; i < 64; i++ {
		k, v := fmt.Sprintf("mig-%d", i), fmt.Sprintf("val-%d", i)
		if err := tx.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tc.nodes[0].coord.Drain() // the writers hold the slot until the commit push lands

	// Move one of node-1's slots to node-0.
	_, slot := tc.keyInSlotOwnedBy("node-1")
	src, dst := tc.nodes[1], tc.nodes[0]

	src.part.FreezeSlot(slot)
	if n := src.part.SlotActive(slot); n != 0 {
		t.Fatalf("slot %d still active after quiesce: %d", slot, n)
	}
	moved, err := src.part.StreamSlot(dst.addr, slot, 3, tc.shard.View().Epoch+1, nil, nil)
	if err != nil {
		t.Fatalf("StreamSlot: %v", err)
	}
	tc.flipEpoch(slot, dst.id)
	src.part.UnfreezeSlot(slot)

	if got := dst.reg.Snapshot().Counter("shardmap.ingest_chunks"); got == 0 {
		t.Error("no ingest chunks recorded on destination")
	}

	// Every key reads back correctly at the new epoch; keys in the moved
	// slot now route to the destination.
	check := tc.nodes[2].coord.Begin(nil)
	inSlot := 0
	for k, v := range want {
		if shardmap.SlotOf([]byte(k)) == slot {
			inSlot++
			if owner := tc.owner([]byte(k)); owner != dst.addr {
				t.Fatalf("key %s routes to %s, want %s", k, owner, dst.addr)
			}
		}
		got, ok := distGet(t, check, k)
		if !ok || got != v {
			t.Fatalf("%s = %q/%v after migration, want %q", k, got, ok, v)
		}
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
	if moved < inSlot {
		t.Errorf("streamed %d keys, slot holds %d", moved, inSlot)
	}

	// Migrating an empty slot still works (pure purge chunk).
	emptySlot := -1
	for s := 0; s < shardmap.NumSlots && emptySlot < 0; s++ {
		empty := true
		for k := range want {
			if shardmap.SlotOf([]byte(k)) == s {
				empty = false
				break
			}
		}
		if empty && tc.shard.View().SlotOwner(s) == src.id {
			emptySlot = s
		}
	}
	if emptySlot >= 0 {
		if n, err := src.part.StreamSlot(dst.addr, emptySlot, 3, tc.shard.View().Epoch+1, nil, nil); err != nil || n != 0 {
			t.Fatalf("empty slot stream: n=%d err=%v", n, err)
		}
	}
}
