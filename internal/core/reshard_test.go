package core

import (
	"errors"
	"fmt"
	"testing"

	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/shardmap"
)

// TestClusterMigrateSlotUnderTraffic moves a slot between live nodes
// and checks that every key — inside and outside the slot — survives
// with the right value, and that every node converged on the new epoch.
func TestClusterMigrateSlotUnderTraffic(t *testing.T) {
	c := newCluster(t, ModeSconeEnc)

	want := map[string]string{}
	tx := c.Node(0).Begin(nil)
	for i := 0; i < 96; i++ {
		k, v := fmt.Sprintf("mig-%d", i), fmt.Sprintf("val-%d", i)
		if err := tx.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Find a slot currently owned by node 1 and move it to node 2.
	cur := c.CAS().ShardMap()
	slot := -1
	for s := 0; s < shardmap.NumSlots; s++ {
		if cur.SlotOwner(s) == 1 {
			slot = s
			break
		}
	}
	if slot < 0 {
		t.Fatal("node 1 owns no slots")
	}
	if err := c.MigrateSlot(slot, 2, MigrateOptions{ChunkSize: 4}); err != nil {
		t.Fatalf("MigrateSlot: %v", err)
	}

	for i := 0; i < c.Nodes(); i++ {
		if got := c.Node(i).ShardEpoch(); got != 2 {
			t.Errorf("node %d epoch = %d, want 2", i, got)
		}
	}
	check := c.Node(0).Begin(nil)
	for k, v := range want {
		got, ok, err := check.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("%s = %q/%v/%v after migration, want %q", k, got, ok, err, v)
		}
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}

	// Migrating the slot again to the same owner is a no-op.
	if err := c.MigrateSlot(slot, 2, MigrateOptions{}); err != nil {
		t.Fatalf("idempotent migrate: %v", err)
	}
}

// TestStaleShardMapRejected replays a genuinely CAS-signed but
// superseded map to a node and to a client: both must refuse it via the
// counter binding and fire shardmap.stale_epoch_rejected.
func TestStaleShardMapRejected(t *testing.T) {
	c := newCluster(t, ModeSconeEnc)

	// Capture the signed epoch-1 map, then advance the cluster to 2.
	old := c.CAS().ShardMap()
	next := old.Clone()
	next.Epoch++
	if err := c.CAS().InstallShardMap(next); err != nil {
		t.Fatal(err)
	}
	c.RefreshShardMaps()

	// Node side.
	n := c.Node(1)
	if err := n.ApplyShardMap(old); !errors.Is(err, shardmap.ErrStaleEpoch) {
		t.Fatalf("node accepted replayed map: %v", err)
	}
	if got := n.Snapshot().Counter("shardmap.stale_epoch_rejected"); got == 0 {
		t.Error("node shardmap.stale_epoch_rejected did not fire")
	}

	// Client side (own metrics registry).
	reg := obs.NewRegistry()
	c.cas.RegisterClient("replay-victim", []byte("s"))
	cl, err := Connect(ClientOptions{
		ID: 777, Addr: "client-replay", Net: c.net, CAS: c.cas,
		CredentialID: "replay-victim", Secret: []byte("s"),
		Secure: c.opts.Mode.Policy().Level == seal.LevelEncrypted, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.ShardEpoch() != 2 {
		t.Fatalf("client connected at epoch %d, want 2", cl.ShardEpoch())
	}
	if err := cl.ApplyShardMap(old); !errors.Is(err, shardmap.ErrStaleEpoch) {
		t.Fatalf("client accepted replayed map: %v", err)
	}
	if got := reg.Snapshot().Counter("shardmap.stale_epoch_rejected"); got == 0 {
		t.Error("client shardmap.stale_epoch_rejected did not fire")
	}

	// A tampered map (re-slotted without re-signing) dies on the MAC.
	forged := c.CAS().ShardMap()
	forged.Slots[0] = (forged.Slots[0] + 1) % 3
	if err := n.ApplyShardMap(forged); !errors.Is(err, shardmap.ErrBadSignature) {
		t.Fatalf("node accepted tampered map: %v", err)
	}
}

// TestAddNodeResolvesBeyondBootList is the addrOf regression test: the
// boot-time provisioned node list on an old node has only the original
// members, so positional indexing cannot resolve a member added later.
// Resolution must go through the shard map's membership table.
func TestAddNodeResolvesBeyondBootList(t *testing.T) {
	c := newCluster(t, ModeSconeEnc)

	n3, err := c.AddNode()
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if n3.ID() != 3 || n3.Addr() != "node-3" {
		t.Fatalf("new node = %d/%s", n3.ID(), n3.Addr())
	}

	// node-0 booted with a 3-entry node list; member 3 must still
	// resolve (through the shard map, not the boot list).
	if got := c.Node(0).AddrOfNode(3); got != "node-3" {
		t.Fatalf("AddrOfNode(3) = %q, want node-3 (positional boot-list resolution?)", got)
	}
	// And ids outside any membership resolve to nothing, not a panic.
	if got := c.Node(0).AddrOfNode(99); got != "" {
		t.Fatalf("AddrOfNode(99) = %q, want empty", got)
	}

	// Every old node converged on the grown membership epoch.
	for i := 0; i < 3; i++ {
		if got := c.Node(i).ShardEpoch(); got != 2 {
			t.Errorf("node %d epoch = %d, want 2", i, got)
		}
	}

	// Move a slot onto the newcomer and route traffic through it.
	cur := c.CAS().ShardMap()
	slot := -1
	for s := 0; s < shardmap.NumSlots; s++ {
		if cur.SlotOwner(s) == 0 {
			slot = s
			break
		}
	}
	tx := c.Node(0).Begin(nil)
	var inSlot []string
	for i := 0; len(inSlot) < 3; i++ {
		k := fmt.Sprintf("grow-%d", i)
		if shardmap.SlotOf([]byte(k)) == slot {
			inSlot = append(inSlot, k)
		}
		if err := tx.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.MigrateSlot(slot, 3, MigrateOptions{ChunkSize: 2}); err != nil {
		t.Fatalf("migrate to new node: %v", err)
	}
	if owner := c.Node(0).Shard().View().SlotOwner(slot); owner != 3 {
		t.Fatalf("slot %d owner = %d, want 3", slot, owner)
	}
	check := c.Node(1).Begin(nil)
	for _, k := range inSlot {
		v, ok, err := check.Get([]byte(k))
		if err != nil || !ok || string(v) != "v-"+k {
			t.Fatalf("%s after growth migration = %q/%v/%v", k, v, ok, err)
		}
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
}
