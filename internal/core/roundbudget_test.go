package core

import (
	"fmt"
	"testing"
)

// TestCounterRoundBudget pins stabilize-on-demand end to end on a full
// security cluster: a committed read-write transaction with two or more
// writers costs one trusted-counter round per participant prepare plus
// one for the coordinator's commit decision — the Clog prepare record and
// the participants' outcome records are written and forced but ride
// later rounds. A sole writer costs one round for its one WAL record and
// no Clog record; a read-only transaction and a rollback log nothing and
// cost no round at all.
func TestCounterRoundBudget(t *testing.T) {
	c := newCluster(t, ModeSconeEncStab)
	sum := func(name string) uint64 {
		var n uint64
		for _, s := range c.Snapshot() {
			n += s.Counter(name)
		}
		return n
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("budget-%03d", i)) }

	const txns, keysPer = 12, 6
	rounds, failures, prepares := sum("counter.rounds"), sum("counter.round.failures"), sum("twopc.part.prepares")
	demanded := sum("lsm.stabilize.demanded")
	for n := 0; n < txns; n++ {
		tx := c.Node(n % 3).Begin(nil)
		for i := 0; i < keysPer; i++ {
			if err := tx.Put(key(n*keysPer+i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		// Every round of the window is waited for (prepare votes,
		// decisions), so the counters are settled once the commit push
		// has ended. Draining after each commit also keeps one
		// transaction's outcome records out of the next one's WAL groups,
		// so each prepare's outcome group is deferred on its own.
		for i := 0; i < c.Nodes(); i++ {
			c.Node(i).Coordinator().Drain()
		}
	}
	dRounds, dPrepares := sum("counter.rounds")-rounds, sum("twopc.part.prepares")-prepares
	dFailures := sum("counter.round.failures") - failures
	if dPrepares < txns {
		t.Fatalf("vacuous: %d prepares for %d transactions", dPrepares, txns)
	}
	// Rotation, flush and compaction demand rounds of their own; none is
	// expected at this volume, but the budget stays exact if one happens.
	housekeeping := max(sum("lsm.stabilize.demanded")-demanded, dPrepares) - dPrepares
	if budget := dPrepares + txns + housekeeping; dRounds > budget {
		t.Fatalf("%d counter rounds (%d failed) for %d transactions, budget %d (prepares %d + decisions %d + housekeeping %d)",
			dRounds, dFailures, txns, budget, dPrepares, txns, housekeeping)
	}
	if got := sum("lsm.wal.stabilize_deferred"); got < dPrepares {
		t.Fatalf("lsm.wal.stabilize_deferred = %d, want one deferred outcome group per prepare (%d)", got, dPrepares)
	}
	if got := sum("twopc.clog.stabilize_deferred"); got < txns {
		t.Fatalf("twopc.clog.stabilize_deferred = %d, want one deferred prepare group per transaction (%d)", got, txns)
	}
	t.Logf("%d txns: %d rounds = %d prepares + %d decisions (+%d housekeeping)", txns, dRounds, dPrepares, txns, housekeeping)

	// delta runs fn and returns how far it moved each named counter.
	// "rounds" counts the counter rounds that succeeded: a round that fails
	// under load is retried, and the retry is the same round.
	read := func(name string) uint64 {
		if name == "rounds" {
			return sum("counter.rounds") - sum("counter.round.failures")
		}
		return sum(name)
	}
	delta := func(fn func(), names ...string) []uint64 {
		before := make([]uint64, len(names))
		for i, name := range names {
			before[i] = read(name)
		}
		fn()
		for i, name := range names {
			before[i] = read(name) - before[i]
		}
		return before
	}
	d := delta(func() {
		ro := c.Node(1).Begin(nil)
		for i := 0; i < 3*keysPer; i++ {
			if v, ok, err := ro.Get(key(i)); err != nil || !ok || string(v) != "v" {
				t.Fatalf("read-back %s: %q found=%v err=%v", key(i), v, ok, err)
			}
		}
		if err := ro.Commit(); err != nil {
			t.Fatal(err)
		}
	}, "rounds", "twopc.clog.appends", "lsm.wal.appends")
	if d[0] != 0 || d[1] != 0 || d[2] != 0 {
		t.Fatalf("read-only distributed transaction: %d counter rounds, %d Clog appends, %d WAL appends, want 0 each", d[0], d[1], d[2])
	}

	sole := keysOwnedBy(t, c, 1, 3)
	d = delta(func() {
		tx := c.Node(0).Begin(nil)
		for _, k := range sole {
			if err := tx.Put([]byte(k), []byte("sole")); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := tx.Get(key(0)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}, "rounds", "lsm.wal.appends", "twopc.clog.appends", "twopc.part.one_phase")
	if d[0] != 1 || d[1] != 1 || d[2] != 0 || d[3] != 1 {
		t.Fatalf("sole-writer transaction: %d counter rounds, %d WAL records, %d Clog appends, %d one-phase commits, want 1, 1, 0, 1", d[0], d[1], d[2], d[3])
	}

	d = delta(func() {
		tx := c.Node(2).Begin(nil)
		for i := 0; i < keysPer; i++ {
			if err := tx.Put(key(i), []byte("rolled back")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	}, "rounds", "twopc.clog.appends")
	if d[0] != 0 || d[1] != 0 {
		t.Fatalf("rollback: %d counter rounds, %d Clog appends, want 0 each", d[0], d[1])
	}
}
