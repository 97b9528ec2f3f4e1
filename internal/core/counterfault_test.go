package core

import (
	"errors"
	"fmt"
	"testing"

	"treaty/internal/counter"
)

// commitKeys commits txns distributed transactions of keysPer fresh keys
// each, round-robin over the coordinators, and returns the keys.
func commitKeys(t *testing.T, c *Cluster, prefix string, txns, keysPer int) [][]byte {
	t.Helper()
	var keys [][]byte
	for n := 0; n < txns; n++ {
		tx := c.Node(n % c.Nodes()).Begin(nil)
		for i := 0; i < keysPer; i++ {
			key := []byte(fmt.Sprintf("%s-%02d-%d", prefix, n, i))
			if err := tx.Put(key, []byte("v")); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, key)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// wantKeys reads every key back through node i.
func wantKeys(t *testing.T, c *Cluster, i int, keys [][]byte) {
	t.Helper()
	tx := c.Node(i).Begin(nil)
	defer tx.Rollback()
	missing := 0
	for _, key := range keys {
		if v, ok, err := tx.Get(key); err != nil || !ok || string(v) != "v" {
			t.Errorf("%s: %q found=%v err=%v", key, v, ok, err)
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d acknowledged keys lost", missing, len(keys))
	}
}

// cutCounterReplica partitions (or heals) protection-group member r from
// every node's counter endpoint.
func cutCounterReplica(c *Cluster, r int, cut bool) {
	for i := 0; i < c.Nodes(); i++ {
		a, b := c.NodeAddr(i)+"/ctr", fmt.Sprintf("ctr-%d", r)
		if cut {
			c.Net().Partition(a, b)
		} else {
			c.Net().Heal(a, b)
		}
	}
}

// TestBootWithoutCounterQuorumRefuses: a node that cannot reach a quorum of
// the protection group at boot has no trusted value to replay its logs
// against. It used to go on with 0, class every MANIFEST, WAL and Clog
// entry an unstabilized tail and truncate it — destroying acknowledged
// commits over a fault that may only cost availability (§VI). It must
// refuse the boot instead, touch nothing, and boot normally once the group
// is reachable again.
func TestBootWithoutCounterQuorumRefuses(t *testing.T) {
	c := newCluster(t, ModeSconeEncStab)
	keys := commitKeys(t, c, "noquorum", 5, 4)

	c.CrashNode(1)
	for r := 0; r < 3; r++ {
		c.Net().Partition("node-1/ctr", fmt.Sprintf("ctr-%d", r))
	}
	if _, err := c.RestartNode(1); !errors.Is(err, counter.ErrNoQuorum) {
		t.Fatalf("restart without a counter quorum = %v, want an error wrapping ErrNoQuorum", err)
	}
	for r := 0; r < 3; r++ {
		c.Net().Heal("node-1/ctr", fmt.Sprintf("ctr-%d", r))
	}
	if _, err := c.RestartNode(1); err != nil {
		t.Fatalf("restart after heal: %v", err)
	}
	wantKeys(t, c, 1, keys)
}

// TestCounterQuorumSurvivesReplicaRestart: values confirmed by ctr-0 and
// ctr-2 only must still be reported by a quorum after ctr-0 restarted and
// ctr-2 is gone — the quorum is then the restarted ctr-0 and a ctr-1 that
// never saw them, so it is ctr-0's journal, not a healthy peer, that
// carries them. A data node recovering against that quorum must keep every
// acknowledged commit.
func TestCounterQuorumSurvivesReplicaRestart(t *testing.T) {
	c := newCluster(t, ModeSconeEncStab)
	cutCounterReplica(c, 1, true)
	// A boot-time confirm may have been on its way to ctr-1 when the cut
	// fell: one whole transaction later it has been journaled.
	commitKeys(t, c, "settle", 1, 1)
	before := c.CounterSnapshot()
	keys := commitKeys(t, c, "restart", 12, 4)
	for addr, s := range c.CounterSnapshot() {
		const appends = "counter.replica.journal_appends"
		if d := s.Counter(appends) - before[addr].Counter(appends); (d == 0) != (addr == "ctr-1") {
			t.Fatalf("vacuous: %s journaled %d confirms while ctr-1 was cut off", addr, d)
		}
	}

	if err := c.RestartCounterReplica(0); err != nil {
		t.Fatal(err)
	}
	cutCounterReplica(c, 2, true)
	cutCounterReplica(c, 1, false)

	c.CrashNode(1)
	n, err := c.RestartNode(1)
	if err != nil {
		t.Fatalf("restart against {restarted ctr-0, ctr-1}: %v", err)
	}
	wantKeys(t, c, 1, keys)
	s := n.Snapshot()
	if torn, corrupt := s.Counter("storage.clog.torn_dropped"), s.Counter("lsm.corruption.detected"); torn != 0 || corrupt != 0 {
		t.Fatalf("restarted node dropped a tail: clog torn=%d lsm corruptions=%d", torn, corrupt)
	}
}
