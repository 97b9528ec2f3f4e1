package chaos

import (
	"strings"
	"testing"

	"treaty/internal/audit"
)

// TestChaosSoak runs the scripted fault soak against a live 3-node
// cluster: every round injects one fault (30% loss, a partition, a
// coordinator or participant crash-restart, delay+duplication), runs the
// bank-transfer workload, lifts the fault, forces recovery, and asserts
// quiescence plus the balance and durability invariants. Short mode runs
// one full cycle of the fault mix.
func TestChaosSoak(t *testing.T) {
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	h, err := New(Config{
		Rounds: rounds,
		Audit:  true,
		Seed:   SeedFromEnv(1),
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	defer func() {
		if err := h.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	stats, err := h.Run(DefaultScript(rounds, h.Cluster().Nodes()))
	if err != nil {
		t.Fatalf("soak failed after %d clean rounds: %v", len(stats), err)
	}
	var commits uint64
	for _, rs := range stats {
		commits += rs.Commits
	}
	if commits == 0 {
		t.Fatalf("workload never committed — the soak exercised nothing")
	}
	t.Logf("soak: %d rounds, %d total commits", len(stats), commits)

	// Run already failed on any serializability violation; make sure the
	// audit itself was non-vacuous: history captured, graph populated.
	rep := h.AuditReport()
	if rep == nil || rep.Committed == 0 || rep.Edges == 0 {
		t.Fatalf("audit vacuous: %v", rep)
	}
	t.Logf("%s", rep)

	// The post-soak cluster snapshot is non-empty and carries per-stage
	// 2PC latency histograms with real samples: at least one live node
	// coordinated committed transactions through the full stage machine.
	snap := h.Cluster().Snapshot()
	if len(snap) == 0 {
		t.Fatal("cluster snapshot empty after soak")
	}
	js, err := h.Cluster().SnapshotJSON()
	if err != nil || len(js) == 0 {
		t.Fatalf("snapshot JSON: %v (%d bytes)", err, len(js))
	}
	stageSamples := uint64(0)
	for addr, s := range snap {
		if law := nodeMetricLaws(addr, s); law != "" {
			t.Errorf("post-soak %s", law)
		}
		for _, stage := range []string{
			"twopc.stage.prepare", "twopc.stage.log-force",
			"twopc.stage.counter-stabilize", "twopc.stage.commit",
		} {
			stageSamples += snap[addr].Histograms[stage].Count
		}
	}
	if stageSamples == 0 {
		t.Error("no 2PC stage latency samples recorded across the cluster")
	}
}

// TestChaosSoakDisk runs the disk-adversity soak: slow devices, ENOSPC,
// fsync failures (fsyncgate semantics: the unsynced tail is dropped),
// read-side bit rot, and a boot-from-corrupted-storage refusal — each
// against live traffic, with the same conservation and no-lost-commit
// invariants as the network soak. `make soak-disk` runs it verbosely.
func TestChaosSoakDisk(t *testing.T) {
	rounds := 12
	if testing.Short() {
		rounds = 6
	}
	h, err := New(Config{
		Rounds:     rounds,
		Audit:      true,
		Seed:       SeedFromEnv(2),
		DiskFaults: true,
		// Small memtables so rounds reach the SSTable write AND read
		// paths (bit rot is only observable on real block reads).
		MemTableSize: 16 << 10,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	defer func() {
		if err := h.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	stats, err := h.Run(DiskFaultScript(rounds, h.Cluster().Nodes()))
	if err != nil {
		t.Fatalf("disk soak failed after %d clean rounds: %v", len(stats), err)
	}
	var commits uint64
	for _, rs := range stats {
		commits += rs.Commits
	}
	if commits == 0 {
		t.Fatal("workload never committed — the disk soak exercised nothing")
	}

	// The injectors must have actually fired: a soak whose fault counters
	// are all zero silently tested a healthy disk.
	var syncsFailed, rotted uint64
	for i := 0; i < h.Cluster().Nodes(); i++ {
		fs := h.NodeFS(i)
		syncsFailed += fs.SyncsFailed()
		rotted += fs.ReadsRotted()
	}
	if syncsFailed == 0 {
		t.Error("no fsync failures were injected across the whole soak")
	}
	if rotted == 0 {
		t.Error("no reads were bit-rotted across the whole soak")
	}
	t.Logf("disk soak: %d rounds, %d commits, %d failed syncs, %d rotted reads",
		len(stats), commits, syncsFailed, rotted)
	if rep := h.AuditReport(); rep == nil || rep.Committed == 0 {
		t.Fatalf("audit vacuous: %v", rep)
	}
}

// TestChaosSoakAdversary is the network-adversary soak: the simnet
// adversary building blocks (delay, duplication, capture-and-replay,
// partition, payload corruption) run against live 2PC traffic, and the
// full client-observed history must stay serializable. This is the
// end-to-end proof that the sealed channel (AEAD + per-op replay cache)
// neutralizes the adversary, not merely survives it.
func TestChaosSoakAdversary(t *testing.T) {
	rounds := 18
	if testing.Short() {
		rounds = 6 // one full cycle: every adversary fires at least once
	}
	seed := SeedFromEnv(3)
	h, err := New(Config{
		Rounds: rounds,
		Audit:  true,
		Seed:   seed,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	defer func() {
		if err := h.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	stats, err := h.Run(AdversaryScript(rounds, h.Cluster().Nodes(), seed))
	if err != nil {
		t.Fatalf("adversary soak failed after %d clean rounds: %v", len(stats), err)
	}
	var commits uint64
	for _, rs := range stats {
		commits += rs.Commits
	}
	if commits == 0 {
		t.Fatal("workload never committed — the adversary soak exercised nothing")
	}

	// Non-vacuity: the adversary must actually have hit the defenses.
	// No node crashed during this script, so the per-incarnation
	// counters span the whole soak.
	var replayHits, authDropped uint64
	for _, s := range h.Cluster().Snapshot() {
		replayHits += s.Counter("erpc.replay.hits")
		authDropped += s.Counter("erpc.msg.auth_dropped")
	}
	if replayHits == 0 {
		t.Error("no duplicate/replayed request was ever deduped — the replay adversary tested nothing")
	}
	if authDropped == 0 {
		t.Error("no corrupted message was ever rejected — the corrupter tested nothing")
	}
	rep := h.AuditReport()
	if rep == nil || rep.Committed == 0 || rep.Edges == 0 {
		t.Fatalf("audit vacuous: %v", rep)
	}
	t.Logf("adversary soak: %d rounds, %d commits, %d replay hits, %d auth drops; %s",
		len(stats), commits, replayHits, authDropped, rep)
}

// TestSeedFromEnv covers the deterministic-repro plumbing.
func TestSeedFromEnv(t *testing.T) {
	t.Setenv("TREATY_SEED", "")
	if got := SeedFromEnv(7); got != 7 {
		t.Fatalf("default seed = %d, want 7", got)
	}
	t.Setenv("TREATY_SEED", "12345")
	if got := SeedFromEnv(7); got != 12345 {
		t.Fatalf("env seed = %d, want 12345", got)
	}
	t.Setenv("TREATY_SEED", "not-a-number")
	if got := SeedFromEnv(7); got != 7 {
		t.Fatalf("invalid env seed = %d, want fallback 7", got)
	}
}

// TestMetricLawViolationDetected checks that the conservation checker
// actually fails on an imbalanced snapshot (the soak passing must mean
// the laws hold, not that the checker is vacuous).
func TestMetricLawViolationDetected(t *testing.T) {
	h, err := New(Config{Rounds: 1})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	defer h.Close()
	// A committed transaction makes begun == committed; bumping begun
	// behind the coordinator's back must trip the 2PC law.
	txn := h.Cluster().Node(0).Begin(nil)
	if err := txn.Put([]byte("law-probe"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if why := nodeMetricLaws("node-0", h.Cluster().Node(0).Snapshot()); why != "" {
		t.Fatalf("law violated on clean cluster: %s", why)
	}
	// A counter round nobody demanded must trip the round law.
	s := h.Cluster().Node(0).Snapshot()
	s.Counters["counter.rounds"] = s.Counter("lsm.stabilize.demanded") + s.Histograms["twopc.clog.group_size"].Count + 1
	if why := logLaws("node-0", s, false); why == "" {
		t.Fatal("checker missed a forced round law violation")
	}
	// A fiber that is still parked when everything has drained must trip
	// the fiber law.
	s = h.Cluster().Node(0).Snapshot()
	s.Gauges["fibers.parked"] = 1
	if why := nodeMetricLaws("node-0", s); !strings.Contains(why, "fiber law") {
		t.Fatalf("checker missed a parked fiber at quiesce: %q", why)
	}
	h.Cluster().Node(0).Metrics().Counter("twopc.tx.begun").Inc()
	if why := nodeMetricLaws("node-0", h.Cluster().Node(0).Snapshot()); why == "" {
		t.Fatal("checker missed a forced 2PC law violation")
	}
}

// TestDefaultScript checks script construction edge cases.
func TestDefaultScript(t *testing.T) {
	if got := len(DefaultScript(7, 3)); got != 7 {
		t.Fatalf("script length = %d, want 7", got)
	}
	if got := len(DefaultScript(0, 3)); got != 0 {
		t.Fatalf("script length = %d, want 0", got)
	}
	if got := len(AdversaryScript(7, 3, 1)); got != 7 {
		t.Fatalf("adversary script length = %d, want 7", got)
	}
	if got := len(AdversaryScript(0, 3, 1)); got != 0 {
		t.Fatalf("adversary script length = %d, want 0", got)
	}
}

// TestAuditViolationDetected proves the soak-side wiring is non-vacuous
// the same way TestMetricLawViolationDetected does for the metric laws:
// inject a lost update behind the harness's back and the audit check
// must fail.
func TestAuditViolationDetected(t *testing.T) {
	h, err := New(Config{Rounds: 1, Audit: true})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	defer h.Close()
	if err := h.AuditCheck(); err != nil {
		t.Fatalf("clean seeded cluster flagged: %v", err)
	}

	// Two clients both RMW the seed version of account 0: a fork in the
	// version chain (lost update) that balance conservation alone would
	// also catch, and — crucially — the audit must catch even though we
	// never run verify().
	rec := h.Auditor()
	seedVal := func() []byte {
		txn := h.Cluster().Node(0).Begin(nil)
		defer txn.Rollback()
		v, _, err := txn.Get(accountKey(0))
		if err != nil {
			t.Fatalf("read seed value: %v", err)
		}
		return v
	}()
	for i := 0; i < 2; i++ {
		tr := rec.Begin(i)
		tr.Read(accountKey(0), seedVal, true)
		tr.Write(accountKey(0), "999")
		tr.End(audit.OutcomeCommitted)
	}
	if err := h.AuditCheck(); err == nil {
		t.Fatal("audit checker missed a forced lost update")
	} else {
		t.Logf("caught as expected: %v", err)
	}
}
