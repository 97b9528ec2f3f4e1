package twopc

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"treaty/internal/obs"
	"treaty/internal/seal"
	"treaty/internal/simnet"
)

// stagesEqual compares an observed stage sequence with the expected one.
func stagesEqual(got []obs.Stage, want []obs.Stage) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestMetricsConservationCleanRun drives a mix of committed, rolled-back
// and read-only transactions and checks the coordinator's laws and counts
// on a quiesced cluster: every transaction begun, none in flight.
func TestMetricsConservationCleanRun(t *testing.T) {
	tc := newTestCluster(t, 3)
	coord := tc.nodes[0].coord

	const commits, rollbacks = 5, 2
	for n := 0; n < commits; n++ {
		tx := coord.Begin(nil)
		for i := 0; i < 6; i++ {
			if err := tx.Put([]byte(fmt.Sprintf("law-%d-%d", n, i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < rollbacks; n++ {
		tx := coord.Begin(nil)
		if err := tx.Put([]byte(fmt.Sprintf("law-rb-%d", n)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	// Read-only transaction: commits via the readonly optimization.
	ro := coord.Begin(nil)
	if _, ok := distGet(t, ro, "law-0-0"); !ok {
		t.Fatal("law-0-0 missing")
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	coord.Drain() // the commit pushes run after Commit returns

	if err := checkLaws(tc.nodes[0].reg); err != nil {
		t.Error(err)
	}
	snap := tc.nodes[0].reg.Snapshot()
	if begun := snap.Counter("twopc.tx.begun"); begun != commits+rollbacks+1 {
		t.Errorf("begun = %d, want %d", begun, commits+rollbacks+1)
	}
	if inflight := snap.Gauge("twopc.tx.inflight"); inflight != 0 {
		t.Errorf("inflight = %d after quiesce, want 0", inflight)
	}
	if got := snap.Counter("twopc.abort.client_rollback"); got != rollbacks {
		t.Errorf("abort.client_rollback = %d, want %d", got, rollbacks)
	}

	// Every committed read-write transaction must have passed through the
	// full stage machine: the per-stage histograms are non-empty and the
	// stabilization wait was measured.
	for _, stage := range []string{
		"twopc.stage.begin", "twopc.stage.execute", "twopc.stage.prepare",
		"twopc.stage.log-force", "twopc.stage.counter-stabilize",
		"twopc.stage.commit", "twopc.stage.reclaim",
	} {
		h, ok := snap.Histograms[stage]
		if !ok || h.Count < commits {
			t.Errorf("histogram %s count = %d, want >= %d", stage, h.Count, commits)
		}
	}
	if h := snap.Histograms["twopc.stabilize.wait_ns"]; h.Count < commits {
		t.Errorf("stabilize.wait_ns count = %d, want >= %d", h.Count, commits)
	}

	// Participant side: every prepare was resolved once the cluster
	// quiesced. ABORT also lands on participants that executed ops but
	// never voted (client rollback), so aborts can exceed prepares-noes:
	// the invariant is commits + aborts >= prepares, not equality.
	var prepares, pCommits, pAborts, roVotes uint64
	for _, nd := range tc.nodes {
		s := nd.reg.Snapshot()
		prepares += s.Counter("twopc.part.prepares")
		pCommits += s.Counter("twopc.part.commits")
		pAborts += s.Counter("twopc.part.aborts")
		roVotes += s.Counter("twopc.part.readonly_votes")
	}
	if prepares == 0 || pCommits == 0 {
		t.Errorf("participant prepares/commits = %d/%d, want > 0", prepares, pCommits)
	}
	if pCommits+pAborts < prepares {
		t.Errorf("unresolved prepares: prepares %d > commits %d + aborts %d",
			prepares, pCommits, pAborts)
	}
	if roVotes == 0 {
		t.Errorf("readonly_votes = 0, want > 0 (read-only txn ran)")
	}
}

// TestTwoPCLaws: each of the package's laws trips on its own violation —
// a commit push still running (push law), a transaction begun that no
// outcome accounts for (tx law), a Clog whose counter ran past its last
// append (Clog law) — and such a Clog refuses to report a clean close.
func TestTwoPCLaws(t *testing.T) {
	tc := newTestCluster(t, 3)
	nd := tc.nodes[0]
	release := nd.coord.HoldPushes()
	tx := nd.coord.Begin(nil)
	for i := 0; i < 12; i++ {
		if err := tx.Put([]byte(fmt.Sprintf("held-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	err := nd.reg.CheckLaws()
	release()
	if err == nil || !strings.Contains(err.Error(), "twopc.push law violated: twopc.coord.pushing=1 != sum()=0") {
		t.Fatalf("a held commit push: %v", err)
	}
	nd.coord.Drain()
	if err := checkLaws(nd.reg); err != nil {
		t.Fatalf("drained node: %v", err)
	}
	nd.reg.Counter("twopc.tx.begun").Inc()
	if err := nd.reg.CheckLaws(); err == nil || !strings.Contains(err.Error(), "twopc.tx law violated: twopc.tx.begun=2 != sum(twopc.tx.committed=1, twopc.tx.aborted=0, twopc.tx.inflight=0)=1") {
		t.Fatalf("a transaction begun and never resolved: %v", err)
	}
	nd.reg.Counter("twopc.tx.aborted").Inc() // resolved: the cleanup's check holds

	ctr := &fakeCounter{}
	clog, _, err := OpenClog(nil, t.TempDir(), seal.LevelEncrypted, tc.key, nil, ctr, -1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	clog.Configure(ClogTuning{Metrics: reg})
	if _, err := clog.Append(clogDecision, globalTxID(1, 1), true, []string{"node-1"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.CheckLaws(); err != nil {
		t.Fatalf("clean Clog: %v", err)
	}
	ctr.Stabilize(9)
	if err := reg.CheckLaws(); err == nil || !strings.Contains(err.Error(), "twopc.clog law violated: twopc.clog.stable_lsn=9 outside [0, twopc.clog.appended_lsn=1]") {
		t.Fatalf("a Clog counter past the last append: %v", err)
	}
	if err := clog.Close(); err == nil || !strings.Contains(err.Error(), "closed with stable counter 9 != last appended 1") {
		t.Fatalf("close of a Clog whose counter ran past it: %v", err)
	}
}

// TestStageTraceSequences checks the exact stage sequences recorded by
// the coordinator's tracer for a committed and a rolled-back transaction.
func TestStageTraceSequences(t *testing.T) {
	tc := newTestCluster(t, 3)
	coord := tc.nodes[0].coord

	tx := coord.Begin(nil)
	for i := 0; i < 12; i++ {
		if err := tx.Put([]byte(fmt.Sprintf("tr-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	coord.Drain() // the commit's trace ends with its push
	rb := coord.Begin(nil)
	if err := rb.Put([]byte("tr-rb"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := rb.Rollback(); err != nil {
		t.Fatal(err)
	}

	recent := coord.Tracer().Recent()
	if len(recent) != 2 {
		t.Fatalf("Recent() len = %d, want 2", len(recent))
	}
	commitTr, abortTr := recent[0], recent[1]

	wantCommit := []obs.Stage{
		obs.StageBegin, obs.StageExecute, obs.StagePrepare,
		obs.StageLogForce, obs.StageStabilize, obs.StageCommit,
		obs.StageReclaim,
	}
	if got := commitTr.Stages(); !stagesEqual(got, wantCommit) {
		t.Errorf("commit stages = %v, want %v", got, wantCommit)
	}
	if outcome, reason := commitTr.Outcome(); outcome != obs.OutcomeCommitted || reason != "" {
		t.Errorf("commit outcome = %q/%q, want committed", outcome, reason)
	}

	wantAbort := []obs.Stage{obs.StageBegin, obs.StageExecute, obs.StageAbort}
	if got := abortTr.Stages(); !stagesEqual(got, wantAbort) {
		t.Errorf("abort stages = %v, want %v", got, wantAbort)
	}
	if outcome, reason := abortTr.Outcome(); outcome != obs.OutcomeAborted || reason != "client_rollback" {
		t.Errorf("abort outcome = %q/%q, want aborted/client_rollback", outcome, reason)
	}
}

// TestRecoveryMetricsExcludedFromTxLaw crashes a coordinator after a
// committed transaction and checks that recovery work is visible through
// twopc.recover.* counters and "recover" traces, but never re-enters the
// tx.begun/committed/aborted conservation law (the transaction already
// counted on the crashed incarnation).
func TestRecoveryMetricsExcludedFromTxLaw(t *testing.T) {
	tc := newTestCluster(t, 3)
	coordNode := tc.nodes[0]

	tx := coordNode.coord.Begin(nil)
	for i := 0; i < 9; i++ {
		if err := tx.Put([]byte(fmt.Sprintf("recm-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	addr, dir := coordNode.addr, coordNode.dir
	tc.crashNode(0)

	nd := tc.restartNode(0, addr, dir)
	if err := nd.coord.RecoverPending(nil); err != nil {
		t.Fatal(err)
	}

	snap := nd.reg.Snapshot()
	if got := snap.Counter("twopc.recover.repush_commit"); got != 1 {
		t.Errorf("recover.repush_commit = %d, want 1", got)
	}
	// Fresh incarnation, no new client transactions: the tx law counters
	// must all be untouched by the recovery replay.
	for _, name := range []string{"twopc.tx.begun", "twopc.tx.committed", "twopc.tx.aborted"} {
		if got := snap.Counter(name); got != 0 {
			t.Errorf("%s = %d after recovery-only boot, want 0", name, got)
		}
	}

	recent := nd.coord.Tracer().Recent()
	if len(recent) != 1 {
		t.Fatalf("Recent() len = %d, want 1 recovery trace", len(recent))
	}
	if outcome, reason := recent[0].Outcome(); outcome != obs.OutcomeRecovered || reason != "repush_commit" {
		t.Errorf("recovery trace outcome = %q/%q, want recovered/repush_commit", outcome, reason)
	}
	if got := recent[0].Stages(); !stagesEqual(got, []obs.Stage{obs.StageRecover}) {
		t.Errorf("recovery trace stages = %v, want [recover]", got)
	}
}

// TestRetriesCounted: a lost decision push is re-sent on the retry
// ladder, and the ladder is what feeds "erpc.req.retries" — with the
// first ReqCommit dropped on the wire, a committed transaction must show
// at least one retry on its coordinator; on a lossless link, none.
func TestRetriesCounted(t *testing.T) {
	tc := newTestCluster(t, 3)
	coord := tc.nodes[0].coord
	coord.timeout = 200 * time.Millisecond // what the dropped push costs

	commit := func(key string) {
		t.Helper()
		tx := coord.Begin(nil)
		for i := 0; i < 6; i++ {
			if err := tx.Put([]byte(fmt.Sprintf("%s-%d", key, i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		coord.Drain() // the push and its retries run after Commit returns
	}
	commit("lossless")
	if got := tc.nodes[0].reg.Snapshot().Counter("erpc.req.retries"); got != 0 {
		t.Fatalf("erpc.req.retries = %d on a lossless link, want 0", got)
	}

	var dropped atomic.Bool
	tc.net.SetAdversary(simnet.FuncAdversary(func(pkt simnet.Packet) simnet.Verdict {
		// The erpc header is cleartext: byte 1 is the request type, byte 2
		// the flags (bit 0: response).
		isCommit := len(pkt.Data) > 2 && pkt.Data[1] == ReqCommit && pkt.Data[2]&1 == 0
		if isCommit && pkt.From == "node-0" && pkt.To != "node-0" && dropped.CompareAndSwap(false, true) {
			return simnet.Verdict{Drop: true}
		}
		return simnet.Verdict{}
	}))
	commit("lossy")
	if !dropped.Load() {
		t.Fatal("vacuous: no ReqCommit was dropped")
	}
	if got := tc.nodes[0].reg.Snapshot().Counter("erpc.req.retries"); got < 1 {
		t.Errorf("erpc.req.retries = %d after a dropped decision push, want >= 1", got)
	}
	for i, nd := range tc.nodes {
		if a := nd.part.ActiveCount(); a != 0 {
			t.Errorf("node %d still holds %d transactions: the re-push did not reach it", i, a)
		}
	}
}
