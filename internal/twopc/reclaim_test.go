package twopc

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestReclaimedTxnIsTombstoned is the regression test for a late
// operation on a part its participant no longer holds: once the janitor
// aborts an idle unprepared transaction, or the participant restarts, a
// later Put for the same id must NOT silently start a fresh local
// transaction — a later prepare would then commit a partial write set.
// The late operation errors, the commit aborts, and none of the
// transaction's writes become visible. The lost part sits on the
// coordinator's own node (a local call) or on another node; it is lost
// to the janitor just now, to the janitor long ago (8 × the idle
// timeout, past any retention window a tombstone could have), or to a
// crash and restart. No per-id state outlives the reclaim.
func TestReclaimedTxnIsTombstoned(t *testing.T) {
	for _, c := range []struct {
		name string
		node int           // the node that loses its part
		idle time.Duration // its idle timeout; 0 = crash and restart it
		late time.Duration // how long after the reclaim the late op comes
	}{
		{"local", 0, 100 * time.Millisecond, 0},
		{"remote", 1, 100 * time.Millisecond, 0},
		{"late-after-8x-idle", 1, 50 * time.Millisecond, 500 * time.Millisecond},
		{"restarted-between-ops", 1, 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			testReclaimedTxnIsTombstoned(t, c.node, c.idle, c.late)
		})
	}
}

func testReclaimedTxnIsTombstoned(t *testing.T, node int, idle, late time.Duration) {
	tc := newTestCluster(t, 3)
	nd := tc.nodes[node]
	if idle > 0 {
		nd = tc.shortIdle(node, idle)
	}

	// Two keys on the node that loses its part, one on node-2 (stays
	// live).
	k1, k3 := tc.keyOn("tomb-a", nd.addr), tc.keyOn("tomb-b", nd.addr)
	k2 := tc.keyOn("tomb", "node-2")

	tx := tc.nodes[0].coord.Begin(nil)
	for _, k := range [][]byte{k1, k3, k2} {
		if err := tx.Put(k, []byte("half")); err != nil {
			t.Fatal(err)
		}
	}

	if idle == 0 {
		addr, dir := nd.addr, nd.dir
		tc.crashNode(node)
		nd = tc.restartNode(node, addr, dir)
	} else {
		// Wait for the janitor to reclaim its part.
		deadline := time.Now().Add(3 * time.Second)
		for nd.part.ActiveCount() != 0 {
			if time.Now().After(deadline) {
				t.Fatal("janitor never reclaimed the idle transaction")
			}
			time.Sleep(20 * time.Millisecond)
		}
		time.Sleep(late)
	}

	// A late write for the lost part must fail loudly, not recreate
	// local state.
	err := tx.Put(k1, []byte("late"))
	if err == nil {
		t.Fatal("late Put after reclaim succeeded; partial write set can now commit")
	}
	if !strings.Contains(err.Error(), "reclaimed") {
		t.Errorf("late Put error = %v, want a reclaimed-transaction error", err)
	}
	if nd.part.ActiveCount() != 0 {
		t.Errorf("late Put recreated active state on the reclaimed participant")
	}

	// The commit must abort (the node that lost its part votes no on an
	// unknown id).
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("Commit = %v, want ErrAborted", err)
	}

	// No part of the write set may be visible anywhere.
	check := tc.nodes[2].coord.Begin(nil)
	for _, k := range [][]byte{k1, k2, k3} {
		if _, found := distGet(t, check, string(k)); found {
			t.Errorf("key %q visible after aborted partial transaction", k)
		}
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestJanitorSparesPrepareInProgress: a prepare holds its transaction's
// mutex across its stabilization wait, which may outlast the idle
// timeout. The janitor must not take that transaction for an idle one:
// rolling it back under the prepare would release its locks and drop its
// writes after it voted yes, and the commit that follows would find
// nothing to commit. Here the coordinator's own leg is the slow prepare.
func TestJanitorSparesPrepareInProgress(t *testing.T) {
	tc := newTestCluster(t, 1)
	nd := tc.shortIdle(0, 100*time.Millisecond)
	tx := nd.coord.Begin(nil)
	if err := tx.Put([]byte("slow-prepare"), []byte("kept")); err != nil {
		t.Fatal(err)
	}
	tc.ctrs.withhold(nd.addr, true) // the prepare entry will not stabilize
	time.AfterFunc(500*time.Millisecond, func() { tc.ctrs.withhold(nd.addr, false) })
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check := nd.coord.Begin(nil)
	if v, ok := distGet(t, check, "slow-prepare"); !ok || v != "kept" {
		t.Errorf("slow-prepare = %q/%v after a commit whose prepare outlasted the idle timeout, want \"kept\"", v, ok)
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
}
