package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"treaty/internal/attest"
	"treaty/internal/shardmap"
	"treaty/internal/simnet"
)

func newReplicatedCluster(t *testing.T, mode SecurityMode) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterOptions{
		Nodes:       3,
		Mode:        mode,
		BaseDir:     t.TempDir(),
		LockTimeout: 500 * time.Millisecond,
		Workers:     4,
		Seed:        11,
		Link:        simnet.LinkConfig{Latency: 50 * time.Microsecond},
		Replicate:   true,
	})
	if err != nil {
		t.Fatalf("NewCluster(%v): %v", mode, err)
	}
	stopAtCleanup(t, c)
	return c
}

// keysOwnedBy returns n distinct keys whose slots the given node owns
// under the current map.
func keysOwnedBy(t *testing.T, c *Cluster, owner uint64, n int) []string {
	t.Helper()
	m := c.CAS().ShardMap()
	var keys []string
	for i := 0; len(keys) < n && i < 100000; i++ {
		k := fmt.Sprintf("fo-%d", i)
		if m.OwnerID([]byte(k)) == owner {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("found only %d keys owned by node %d", len(keys), owner)
	}
	return keys
}

// TestFailoverPromoteBackup is the tentpole end-to-end: commit through
// the doomed primary, crash it, promote its recorded backup via the CAS
// certificate, and keep serving — the acknowledged data in the dead
// node's slots must survive on the successor, and the dead address must
// alias to it.
func TestFailoverPromoteBackup(t *testing.T) {
	for _, mode := range AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			c := newReplicatedCluster(t, mode)

			keys := keysOwnedBy(t, c, 0, 8)
			want := map[string]string{}
			// Mix coordinators so the doomed node's Clog carries real
			// distributed decisions, not just participant state.
			for i, k := range keys {
				tx := c.Node(i % 3).Begin(nil)
				v := fmt.Sprintf("v-%s", k)
				if err := tx.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatalf("commit %s: %v", k, err)
				}
				want[k] = v
			}

			c.CrashNode(0)
			successor, err := c.Promote(0)
			if err != nil {
				t.Fatalf("Promote(0): %v", err)
			}
			if successor.ID() != 1 {
				t.Fatalf("promoted node %d, want the recorded backup 1", successor.ID())
			}
			if got := successor.Snapshot().Counter("repl.promotions"); got != 1 {
				t.Fatalf("repl.promotions = %d, want 1", got)
			}

			// The dead primary's slots now belong to the successor...
			m := c.CAS().ShardMap()
			for s := 0; s < shardmap.NumSlots; s++ {
				if m.Slots[s] == 0 {
					t.Fatalf("slot %d still owned by the dead node", s)
				}
			}
			// ...and its address aliases to the successor on every
			// live node's view.
			for _, n := range c.LiveNodes() {
				if got := n.AddrOfNode(0); got != successor.Addr() {
					t.Fatalf("node %d resolves dead node to %q, want %q", n.ID(), got, successor.Addr())
				}
			}

			// Every acknowledged write survived the failover.
			check := successor.Begin(nil)
			for k, v := range want {
				got, ok, err := check.Get([]byte(k))
				if err != nil || !ok || string(got) != v {
					t.Fatalf("%s = %q/%v/%v after failover, want %q", k, got, ok, err, v)
				}
			}
			if err := check.Commit(); err != nil {
				t.Fatal(err)
			}

			// And the successor serves new writes on the adopted slots,
			// from both itself and the other survivor.
			for i, k := range keys {
				tx := c.Node(1 + i%2).Begin(nil)
				v := fmt.Sprintf("v2-%s", k)
				if err := tx.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatalf("post-failover commit %s: %v", k, err)
				}
			}
		})
	}
}

// TestFailoverAdversaries drives the three forbidden takeovers — a
// rolled-back mirror, a forked mirror, and a replayed certificate — and
// checks each is rejected with its own error and counter.
func TestFailoverAdversaries(t *testing.T) {
	c := newReplicatedCluster(t, ModeSconeEnc)

	for _, k := range keysOwnedBy(t, c, 0, 4) {
		tx := c.Node(0).Begin(nil)
		if err := tx.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	c.CrashNode(0)
	backup := c.Node(1)

	genuine := backup.BuildPromotionRequest(0)
	if len(genuine.Streams) == 0 {
		t.Fatal("no witnessed streams: the adversary tests would be vacuous")
	}

	// Rolled-back replica: the mirror claims a shorter prefix than the
	// CAS witnessed before the primary's counters stabilized.
	rolled := backup.BuildPromotionRequest(0)
	for i := range rolled.Streams {
		rolled.Streams[i].Seq = 0
		rolled.Streams[i].HaveBoundary = false
	}
	if _, err := backup.SubmitPromotion(rolled); !errors.Is(err, attest.ErrReplicaRolledBack) {
		t.Fatalf("rolled-back promotion: %v, want ErrReplicaRolledBack", err)
	}
	if got := backup.Snapshot().Counter("repl.rollback_rejected"); got != 1 {
		t.Fatalf("repl.rollback_rejected = %d, want 1", got)
	}

	// Forked replica: right length, wrong history — the digest at the
	// witnessed position diverges.
	forked := backup.BuildPromotionRequest(0)
	forked.Streams[0].DigestAtWitness[0] ^= 0xFF
	if _, err := backup.SubmitPromotion(forked); !errors.Is(err, attest.ErrReplicaForked) {
		t.Fatalf("forked promotion: %v, want ErrReplicaForked", err)
	}
	if got := backup.Snapshot().Counter("repl.fork_rejected"); got != 1 {
		t.Fatalf("repl.fork_rejected = %d, want 1", got)
	}

	// An unrelated node holding no mirror cannot be certified even with
	// the genuine claims: it is not the recorded backup.
	hijack := &attest.PromotionRequest{Primary: 0, Backup: 2, Streams: genuine.Streams}
	if _, err := c.CAS().IssuePromotionCert(hijack); err == nil {
		t.Fatal("non-recorded backup obtained a promotion certificate")
	}

	// The genuine takeover succeeds...
	cert, err := backup.SubmitPromotion(genuine)
	if err != nil {
		t.Fatalf("genuine promotion refused: %v", err)
	}
	if err := backup.InstallPromotionCert(cert); err != nil {
		t.Fatalf("genuine install: %v", err)
	}
	// ...and replaying the consumed certificate is rejected like a
	// stale shard map.
	if err := backup.InstallPromotionCert(cert); !errors.Is(err, attest.ErrPromotionReplayed) {
		t.Fatalf("replayed cert: %v, want ErrPromotionReplayed", err)
	}
	if got := backup.Snapshot().Counter("repl.cert_replay_rejected"); got != 1 {
		t.Fatalf("repl.cert_replay_rejected = %d, want 1", got)
	}
}

// TestFailoverBackupBeyondBootList mirrors
// TestAddNodeResolvesBeyondBootList for the replication path: the
// backup assignment points at a member added after the primary booted,
// so shipping only works if the shipper resolves the backup through the
// shard map's membership table — positional boot-list indexing would
// never find it.
func TestFailoverBackupBeyondBootList(t *testing.T) {
	c := newReplicatedCluster(t, ModeSconeEnc)
	n3, err := c.AddNode()
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}

	// Back node 0 up onto the newcomer (id 3 — beyond every original
	// node's 3-entry boot list).
	cur := c.CAS().ShardMap()
	next := cur.Clone()
	next.Epoch++
	next.Members[0].Backup = 3
	if err := c.CAS().InstallShardMap(next); err != nil {
		t.Fatal(err)
	}
	c.RefreshShardMaps()

	for _, k := range keysOwnedBy(t, c, 0, 4) {
		tx := c.Node(0).Begin(nil)
		if err := tx.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// The primary replicated to the late-joined backup, not into a
	// degrade: resolution went through the membership table.
	snap := c.Node(0).Snapshot()
	if snap.Counter("repl.ship_acked") == 0 {
		t.Fatal("nothing replicated to the late-joined backup")
	}
	if snap.Counter("repl.ship_failed") != 0 {
		t.Fatal("shipping to the late-joined backup degraded")
	}
	if seq, _, ok := n3.Backup().StreamState(0, 1); !ok || seq == 0 {
		t.Fatalf("newcomer mirrors nothing from node 0 (seq=%d ok=%v)", seq, ok)
	}

	// And the newcomer can take over.
	c.CrashNode(0)
	successor, err := c.Promote(0)
	if err != nil {
		t.Fatalf("Promote(0): %v", err)
	}
	if successor.ID() != 3 {
		t.Fatalf("promoted node %d, want the late-joined backup 3", successor.ID())
	}
}

// TestMigrateIntoReplicatedNodeKeepsBackup moves a slot into a
// replicated node and then fails that node over. A node ships its whole
// WAL and Clog to one backup, so the slot it gains must follow its new
// owner's backup: its stream must not degrade, and the recorded backup
// must be able to take over with every committed key.
func TestMigrateIntoReplicatedNodeKeepsBackup(t *testing.T) {
	c := newReplicatedCluster(t, ModeSconeEnc)
	want := map[string]string{}
	commit := func(round string, keys []string) {
		t.Helper()
		for i, k := range keys {
			tx := c.Node(i % 3).Begin(nil)
			v := round + "-" + k
			if err := tx.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("%s commit %s: %v", round, k, err)
			}
			want[k] = v
		}
	}
	commit("before", keysOwnedBy(t, c, 2, 4))

	slot := -1
	for s := 0; s < shardmap.NumSlots && slot < 0; s++ {
		if c.CAS().ShardMap().SlotOwner(s) == 0 {
			slot = s
		}
	}
	var moved []string
	for i := 0; len(moved) < 4; i++ {
		if k := fmt.Sprintf("fo-%d", i); shardmap.SlotOf([]byte(k)) == slot {
			moved = append(moved, k)
		}
	}
	commit("before", moved)
	if err := c.MigrateSlot(slot, 2, MigrateOptions{}); err != nil {
		t.Fatalf("MigrateSlot(%d, 2): %v", slot, err)
	}
	commit("after", append(keysOwnedBy(t, c, 2, 4), moved...))

	shipFailed := c.Node(2).Snapshot().Counter("repl.ship_failed")
	c.CrashNode(2)
	successor, err := c.Promote(2)
	if err != nil {
		t.Fatalf("Promote(2): %v", err)
	}
	if shipFailed != 0 {
		t.Fatalf("node 2 repl.ship_failed = %d after gaining slot %d, want 0", shipFailed, slot)
	}
	check := successor.Begin(nil)
	for k, v := range want {
		got, ok, err := check.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("%s = %q/%v/%v after failover, want %q", k, got, ok, err, v)
		}
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPromotedSuccessorSettlesBothParts: a successor that is itself a
// participant of the dead primary's in-doubt transaction holds two parts
// under one id after promotion — its own and the primary's, restored from
// the WAL mirror. The one commit decision settles both: neither part is
// left holding its locks, and both writes are visible.
func TestPromotedSuccessorSettlesBothParts(t *testing.T) {
	c := newReplicatedCluster(t, ModeSconeEncStab)
	primary, successorKey := keysOwnedBy(t, c, 0, 1)[0], keysOwnedBy(t, c, 1, 1)[0]

	// Node 0 coordinates a transaction writing on itself and on node 1,
	// its backup. The decision is stable; the pushes never go out.
	coord := c.Node(0).Coordinator()
	release := coord.HoldPushes()
	tx := c.Node(0).Begin(nil)
	for _, k := range []string{primary, successorKey} {
		if err := tx.Put([]byte(k), []byte("both")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c.CrashNode(0)
	release() // the crashed incarnation's push reaches nobody
	coord.Drain()
	if a := c.Node(1).Participant().ActiveCount(); a != 1 {
		t.Fatalf("node 1 holds %d parts before the promotion, want its own prepared part", a)
	}

	successor, err := c.Promote(0)
	if err != nil {
		t.Fatalf("Promote(0): %v", err)
	}
	if a := successor.Participant().ActiveCount(); a != 0 {
		t.Errorf("the successor holds %d parts after promotion, want 0", a)
	}
	check := c.Node(2).Begin(nil)
	for _, k := range []string{primary, successorKey} {
		if err := check.Put([]byte(k), []byte("after")); err != nil {
			t.Fatalf("%s is still locked after promotion: %v", k, err)
		}
	}
	if err := check.Rollback(); err != nil {
		t.Fatal(err)
	}
	read := successor.Begin(nil)
	for _, k := range []string{primary, successorKey} {
		if v, ok, err := read.Get([]byte(k)); err != nil || !ok || string(v) != "both" {
			t.Errorf("%s = %q/%v/%v after promotion, want the committed value", k, v, ok, err)
		}
	}
	if err := read.Commit(); err != nil {
		t.Fatal(err)
	}
}
