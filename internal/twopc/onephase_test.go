package twopc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// keyOn returns a key with prefix that node addr owns.
func (tc *testCluster) keyOn(prefix, addr string) []byte {
	for i := 0; ; i++ {
		if k := []byte(fmt.Sprintf("%s-%d", prefix, i)); tc.owner(k) == addr {
			return k
		}
	}
}

// TestOnePhaseCommitAnswersOnce: a transaction whose only writer is
// node-1 commits there in one phase, and its coordinator logs nothing. A
// one-phase commit sent again after it landed, two that race for the
// same part, and one sent to an id the janitor reclaimed each answer an
// error: none commits a second time or a reclaimed write set.
func TestOnePhaseCommitAnswersOnce(t *testing.T) {
	tc := newTestCluster(t, 3)
	coord, part := tc.nodes[0].coord, tc.nodes[1].part
	onePhase := func() uint64 { return tc.counterOn(1, "twopc.part.one_phase") }

	tx := coord.Begin(nil)
	if err := tx.Put(tc.keyOn("once", "node-1"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tx.Get(tc.keyOn("once-read", "node-2")); err != nil {
		t.Fatal(err)
	}
	appends := tc.counterOn(0, "twopc.clog.appends")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := onePhase(); got != 1 {
		t.Fatalf("twopc.part.one_phase = %d on the sole writer, want 1", got)
	}
	if d := tc.counterOn(0, "twopc.clog.appends") - appends; d != 0 {
		t.Errorf("a one-phase commit appended %d Clog records, want 0", d)
	}
	if coord.status(tx.ID()) == StatusCommit || coord.PreparedCount() != 0 {
		t.Errorf("a one-phase commit left coordinator state: committed=%v prepared=%d", coord.status(tx.ID()) == StatusCommit, coord.PreparedCount())
	}
	if _, err := tx.broadcast(ReqCommitOnePhase, []string{"node-1"}); err == nil {
		t.Error("a one-phase commit sent again after it landed was acknowledged, want an error")
	}

	tx = coord.Begin(nil)
	if err := tx.Put(tc.keyOn("race", "node-1"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	at := part.find(partKey{id: tx.id}, false)
	at.mu.Lock()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := part.control(nil, ReqCommitOnePhase, tx.id)
			errs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // both find the transaction and wait for at.mu
	at.mu.Unlock()
	if a, b := <-errs, <-errs; (a == nil) == (b == nil) {
		t.Errorf("two racing one-phase commits answered %v and %v, want one ACK and one error", a, b)
	}
	if got := onePhase(); got != 2 {
		t.Errorf("twopc.part.one_phase = %d after the race, want 2", got)
	}

	nd := tc.shortIdle(1, 100*time.Millisecond)
	key := tc.keyOn("reclaimed", "node-1")
	tx = coord.Begin(nil)
	if err := tx.Put(key, []byte("reclaimed")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(3 * time.Second); nd.part.ActiveCount() != 0; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("janitor never reclaimed the idle transaction")
		}
	}
	if _, err := tx.broadcast(ReqCommitOnePhase, []string{"node-1"}); err == nil || !strings.Contains(err.Error(), "unknown transaction") {
		t.Errorf("one-phase commit of a reclaimed id = %v, want an unknown-transaction error", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Errorf("Commit of a reclaimed sole writer = %v, want ErrAborted", err)
	}
	check := tc.nodes[2].coord.Begin(nil)
	if v, ok := distGet(t, check, string(key)); ok {
		t.Errorf("%s = %q: a reclaimed write set committed", key, v)
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestLostOnePhaseCommitReleases: a one-phase commit that never reaches
// its writer leaves the transaction indeterminate to its client and no
// prepared state anywhere — no Clog record, no prepared part — so the
// janitor reclaims the part and the key is writable again.
func TestLostOnePhaseCommitReleases(t *testing.T) {
	tc := newShapedCluster(t, 3, 4, 300*time.Millisecond)
	nd := tc.shortIdle(1, 200*time.Millisecond)
	key := tc.keyOn("lost", "node-1")
	tx := tc.nodes[0].coord.Begin(nil)
	if err := tx.Put(key, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	tc.net.Partition("node-0", "node-1")
	err := tx.Commit()
	tc.net.Heal("node-0", "node-1")
	if !errors.Is(err, ErrAborted) || tx.Outcome() != TxnIndeterminate {
		t.Fatalf("Commit with its one-phase commit lost = %v (outcome %d), want ErrAborted, indeterminate", err, tx.Outcome())
	}
	if at := nd.part.find(partKey{id: tx.id}, false); at != nil && at.prepared.Load() {
		t.Error("the writer holds the transaction prepared")
	}
	if n := tc.nodes[0].coord.PreparedCount(); n != 0 {
		t.Errorf("coordinator holds %d prepared transactions, want 0", n)
	}
	for deadline := time.Now().Add(3 * time.Second); nd.part.ActiveCount() != 0; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("janitor never reclaimed the part whose one-phase commit was lost")
		}
	}
	tx2 := tc.nodes[2].coord.Begin(nil)
	if err := tx2.Put(key, []byte("fresh")); err != nil {
		t.Fatalf("key still locked after the janitor ran: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSoleWriterSurvivesRestart: the sole writer acknowledged its
// one-phase commit only once its WAL record was stabilized, so after a
// crash and a restart it still serves every key of the write set.
func TestSoleWriterSurvivesRestart(t *testing.T) {
	tc := newTestCluster(t, 3)
	var keys [][]byte
	tx := tc.nodes[0].coord.Begin(nil)
	for i := 0; i < 3; i++ {
		k := tc.keyOn(fmt.Sprintf("sole-%d", i), "node-1")
		keys = append(keys, k)
		if err := tx.Put(k, []byte("v-"+string(k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := tc.counterOn(1, "twopc.part.one_phase"); got != 1 {
		t.Fatalf("twopc.part.one_phase = %d, want 1", got)
	}
	addr, dir := tc.nodes[1].addr, tc.nodes[1].dir
	tc.crashNode(1)
	tc.restartNode(1, addr, dir)

	check := tc.nodes[2].coord.Begin(nil)
	for _, k := range keys {
		if v, ok := distGet(t, check, string(k)); !ok || v != "v-"+string(k) {
			t.Errorf("%s = %q/%v after the sole writer restarted", k, v, ok)
		}
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
}
