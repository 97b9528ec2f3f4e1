package core

import (
	"fmt"
	"testing"
)

// TestCounterRoundBudget pins stabilize-on-demand end to end on a full
// security cluster: a committed read-write transaction costs one
// trusted-counter round per participant prepare plus one for the
// coordinator's commit decision — the Clog prepare record and the
// participants' outcome records are written and forced but ride later
// rounds — and a read-only distributed transaction costs none at all.
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
	rounds, prepares := sum("counter.rounds"), sum("twopc.part.prepares")
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
	}
	// Every round of the window was waited for (prepare votes, decisions),
	// so the counters are settled once the last Commit returned.
	dRounds, dPrepares := sum("counter.rounds")-rounds, sum("twopc.part.prepares")-prepares
	if dPrepares < txns {
		t.Fatalf("vacuous: %d prepares for %d transactions", dPrepares, txns)
	}
	// Rotation, flush and compaction demand rounds of their own; none is
	// expected at this volume, but the budget stays exact if one happens.
	housekeeping := max(sum("lsm.stabilize.demanded")-demanded, dPrepares) - dPrepares
	if budget := dPrepares + txns + housekeeping; dRounds > budget {
		t.Fatalf("%d counter rounds for %d transactions, budget %d (prepares %d + decisions %d + housekeeping %d)",
			dRounds, txns, budget, dPrepares, txns, housekeeping)
	}
	if got := sum("lsm.wal.stabilize_deferred"); got < dPrepares {
		t.Fatalf("lsm.wal.stabilize_deferred = %d, want one deferred outcome group per prepare (%d)", got, dPrepares)
	}
	if got := sum("twopc.clog.stabilize_deferred"); got < txns {
		t.Fatalf("twopc.clog.stabilize_deferred = %d, want one deferred prepare group per transaction (%d)", got, txns)
	}
	t.Logf("%d txns: %d rounds = %d prepares + %d decisions (+%d housekeeping)", txns, dRounds, dPrepares, txns, housekeeping)

	rounds = sum("counter.rounds")
	ro := c.Node(1).Begin(nil)
	for i := 0; i < 3*keysPer; i++ {
		if v, ok, err := ro.Get(key(i)); err != nil || !ok || string(v) != "v" {
			t.Fatalf("read-back %s: %q found=%v err=%v", key(i), v, ok, err)
		}
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	if d := sum("counter.rounds") - rounds; d != 0 {
		t.Fatalf("read-only distributed transaction fired %d counter rounds, want 0", d)
	}
}
