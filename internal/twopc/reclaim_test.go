package twopc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestReclaimedTxnIsTombstoned is the regression test for the
// reclaim/late-operation race: once the janitor aborts an idle
// unprepared transaction, a late Put for the same id must NOT silently
// start a fresh local transaction — a later prepare would then commit a
// partial write set. The late operation errors, the commit aborts, and
// none of the transaction's writes become visible. The reclaimed half
// sits on the coordinator's own node (a local call) or on another node.
func TestReclaimedTxnIsTombstoned(t *testing.T) {
	for _, c := range []struct {
		name     string
		reclaims int // the node whose janitor reclaims its half
	}{{"local", 0}, {"remote", 1}} {
		t.Run(c.name, func(t *testing.T) { testReclaimedTxnIsTombstoned(t, c.reclaims) })
	}
}

func testReclaimedTxnIsTombstoned(t *testing.T, reclaims int) {
	tc := newTestCluster(t, 3)
	nd := tc.shortIdle(reclaims, 100*time.Millisecond)

	// One key on the reclaiming node, one on node-2 (stays live).
	keyOn := func(addr string) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("tomb-%s-%d", addr, i)
			if tc.owner([]byte(k)) == addr {
				return k
			}
		}
	}
	k1, k2 := keyOn(nd.addr), keyOn("node-2")

	tx := tc.nodes[0].coord.Begin(nil)
	if err := tx.Put([]byte(k1), []byte("half")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put([]byte(k2), []byte("half")); err != nil {
		t.Fatal(err)
	}

	// Wait for the janitor to reclaim its half.
	deadline := time.Now().Add(3 * time.Second)
	for nd.part.ActiveCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("janitor never reclaimed the idle transaction")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A late write for the reclaimed id must fail loudly, not recreate
	// local state.
	err := tx.Put([]byte(k1), []byte("late"))
	if err == nil {
		t.Fatal("late Put after reclaim succeeded; partial write set can now commit")
	}
	if !strings.Contains(err.Error(), "reclaimed") {
		t.Errorf("late Put error = %v, want a reclaimed-transaction error", err)
	}
	if nd.part.ActiveCount() != 0 {
		t.Errorf("late Put recreated active state on the reclaimed participant")
	}

	// The commit must abort (the reclaiming node votes no on an
	// unknown/reclaimed id).
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("Commit = %v, want ErrAborted", err)
	}

	// Neither half of the write set may be visible anywhere.
	check := tc.nodes[2].coord.Begin(nil)
	for _, k := range []string{k1, k2} {
		if _, found := distGet(t, check, k); found {
			t.Errorf("key %q visible after aborted partial transaction", k)
		}
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestReclaimedTombstonesArePurged checks the tombstone map does not
// itself become the leak: entries older than the retention window are
// swept out by the janitor.
func TestReclaimedTombstonesArePurged(t *testing.T) {
	tc := newTestCluster(t, 3)
	nd := tc.shortIdle(1, 50*time.Millisecond)

	tx := tc.nodes[0].coord.Begin(nil)
	var key string
	for i := 0; ; i++ {
		k := fmt.Sprintf("purge-%d", i)
		if tc.owner([]byte(k)) == "node-1" {
			key = k
			break
		}
	}
	if err := tx.Put([]byte(key), []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Wait out reclamation plus the 8× retention window.
	deadline := time.Now().Add(5 * time.Second)
	for {
		nd.part.mu.Lock()
		active, tombs := len(nd.part.active), len(nd.part.reclaimed)
		nd.part.mu.Unlock()
		if active == 0 && tombs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tombstones not purged: active=%d tombstones=%d", active, tombs)
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = tx.Rollback()
}
