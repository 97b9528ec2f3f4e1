package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"treaty/internal/audit"
	"treaty/internal/core"
	"treaty/internal/shardmap"
	"treaty/internal/workload"
)

// soak is one row of the soak table: the cluster it boots, the fault
// cycle it repeats, and what its faults must have done.
type soak struct {
	name string
	// seed is the default; TREATY_SEED overrides it.
	seed        int64
	full, short int // rounds
	cfg         Config
	cycle       func(i int) []Fault
	// check asserts the row's faults fired; it runs after the script
	// passed.
	check func(t *testing.T, h *Harness)
}

// networkCycle is the canonical round mix: loss, a partition, a
// coordinator and a participant crash-restart, delay+duplication.
func networkCycle(i int) []Fault {
	return []Fault{
		loss(0.30),
		partition(i % clusterSize),
		crashRestart("coordinator", i%clusterSize),
		crashRestart("participant", (i+1)%clusterSize),
		delayDup(),
	}
}

var soaks = []soak{{
	name: "network", seed: 1, full: 20, short: 5,
	cycle: networkCycle,
	check: func(t *testing.T, h *Harness) {
		// Some live node coordinated committed transactions through the
		// full stage machine.
		var samples uint64
		for _, s := range h.cluster.Snapshot() {
			for _, stage := range []string{"prepare", "log-force", "counter-stabilize", "commit"} {
				samples += s.Histograms["twopc.stage."+stage].Count
			}
		}
		if samples == 0 {
			t.Error("no 2PC stage latency samples recorded across the cluster")
		}
	},
}, {
	// The same mix against the real trusted-counter protection group, plus
	// a replica restart under load.
	name: "counter", seed: 5, full: 6, short: 6,
	cfg:   Config{Mode: core.ModeSconeEncStab},
	cycle: func(i int) []Fault { return append(networkCycle(i), counterRestart(0)) },
	check: func(t *testing.T, h *Harness) {
		if sum(h, "counter.rounds") == 0 {
			t.Error("no counter round on any live node — the round law was checked against nothing")
		}
	},
}, {
	// Small memtables, so rounds reach the SSTable write and read paths
	// (bit rot is only observable on real block reads).
	name: "disk", seed: 2, full: 12, short: 6,
	cfg: Config{MemTableSize: 16 << 10},
	cycle: func(i int) []Fault {
		return []Fault{
			slowDisk(i % clusterSize), enospc((i + 1) % clusterSize), syncFail((i + 2) % clusterSize),
			bitRot(i % clusterSize), loss(0.20), rotBoot((i + 1) % clusterSize),
		}
	},
	check: func(t *testing.T, h *Harness) {
		var syncsFailed, rotted uint64
		for _, fs := range h.fs {
			syncsFailed += fs.SyncsFailed()
			rotted += fs.ReadsRotted()
		}
		if syncsFailed == 0 || rotted == 0 {
			t.Errorf("disk faults never fired: %d failed syncs, %d rotted reads", syncsFailed, rotted)
		}
	},
}, {
	// The audit is the proof that the sealed channel neutralizes the
	// adversary rather than merely surviving it.
	name: "adversary", seed: 3, full: 18, short: 6,
	cycle: func(i int) []Fault {
		return []Fault{
			lossy("adv-delay-3ms", 0, 3*time.Millisecond, 0), lossy("adv-duplicate", 0, 0, 2), replay(),
			partition(i % clusterSize), corrupt(), delayDup(),
		}
	},
	check: func(t *testing.T, h *Harness) {
		// No node crashes in this script, so the counters span the soak.
		if hits := sum(h, "erpc.replay.hits"); hits == 0 {
			t.Error("no duplicate/replayed request was ever deduped — the replay adversary tested nothing")
		}
		if drops := sum(h, "erpc.msg.auth_dropped"); drops == 0 {
			t.Error("no corrupted message was ever rejected — the corrupter tested nothing")
		}
	},
}, {
	name: "reshard", seed: 4, full: 16, short: 8,
	cycle: func(i int) []Fault {
		return []Fault{migrateLive(i % clusterSize), loss(0.20), killMigrationSource((i + 1) % clusterSize), delayDup()}
	},
	check: func(t *testing.T, h *Harness) {
		w := h.seen
		if w.migrations == 0 || w.kills == 0 || w.fenceRejections == 0 {
			t.Errorf("resharding went untested: %d migrations, %d mid-stream kills, %d fence/epoch rejections",
				w.migrations, w.kills, w.fenceRejections)
		}
		want := w.startEpoch + uint64(w.migrations+w.kills)
		for i := 0; i < clusterSize; i++ {
			if got := h.cluster.Node(i).ShardEpoch(); got != want {
				t.Errorf("node %d epoch = %d, want %d (%d migrations + %d kill-retries from %d)",
					i, got, want, w.migrations, w.kills, w.startEpoch)
			}
		}
	},
}, {
	name: "failover", seed: 6, full: 10, short: 5,
	cfg: Config{Replicate: true},
	cycle: func(i int) []Fault {
		if i == 0 {
			return []Fault{loss(0.20), delayDup(), failover(0)}
		}
		return []Fault{loss(0.20), delayDup()}
	},
	check: func(t *testing.T, h *Harness) {
		w := h.seen
		if w.promotions != 1 || w.preKillCommits == 0 || w.rollbackRejects == 0 {
			t.Fatalf("failover went untested: %d promotions, %d commits before the kill, %d rolled-back requests refused",
				w.promotions, w.preKillCommits, w.rollbackRejects)
		}
		// The successor's own counters agree, and its mirror received
		// groups before the takeover.
		succ := h.cluster.Node(int(w.successor))
		if succ == nil {
			t.Fatalf("successor %d not live at end of soak", w.successor)
		}
		s := succ.Snapshot()
		if p, r, a := s.Counter("repl.promotions"), s.Counter("repl.rollback_rejected"), s.Counter("repl.recv_acked"); p != 1 || r != 1 || a == 0 {
			t.Errorf("successor: repl.promotions=%d rollback_rejected=%d (want 1, 1), recv_acked=%d (want > 0)", p, r, a)
		}
	},
}, {
	// Coordinator restarts, whose ReqResolve notices and status answers
	// settle the participants' in-doubt parts, under duplicate delivery of
	// the control messages and a partition that heals with work in flight.
	name: "recover", seed: 11, full: 4, short: 4,
	cfg: Config{Accounts: 16, Workers: 3},
	cycle: func(int) []Fault {
		return []Fault{dupCrash(0), partition(1), dupCrash(1), delayDup()}
	},
	check: func(t *testing.T, h *Harness) {
		// The crash rounds exercised the recovery paths, not just rebooted
		// idle nodes: some in-doubt part was resolved by status query.
		if n := sum(h, "twopc.part.resolved"); n == 0 {
			t.Error("no part resolved by query on any live node — the recovery rounds rebooted idle nodes")
		}
		// Re-deliver recovery itself: the notices and ResolveRecovered
		// must be idempotent against their own duplicates.
		for pass := 0; pass < 2; pass++ {
			for _, n := range h.cluster.LiveNodes() {
				if err := n.Recover(); err != nil {
					t.Fatalf("recovery pass %d on node %d: %v", pass, n.ID(), err)
				}
			}
		}
		if _, err := h.drain(); err != nil {
			t.Fatalf("after duplicate recovery: %v", err)
		}
		if err := h.verify(); err != nil {
			t.Fatalf("after duplicate recovery: %v", err)
		}
		if _, err := h.auditCheck(); err != nil {
			t.Fatalf("after duplicate recovery: %v", err)
		}
	},
}}

// sum adds one counter over the live nodes' current incarnations.
func sum(h *Harness, counter string) uint64 {
	var n uint64
	for _, s := range h.cluster.Snapshot() {
		n += s.Counter(counter)
	}
	return n
}

// TestChaosSoak runs every row of the soak table against a live 3-node
// cluster: each round injects one fault, runs the audited bank-transfer
// workload, lifts the fault, forces recovery, and asserts quiescence, the
// balance and durability invariants and the conservation laws; the history
// must be serializable. Short mode runs about one cycle per row.
// `TREATY_SEED=<n> go test -run TestChaosSoak/<row>` replays one row.
func TestChaosSoak(t *testing.T) {
	for _, row := range soaks {
		t.Run(row.name, func(t *testing.T) {
			rounds := row.full
			if testing.Short() {
				rounds = row.short
			}
			cfg := row.cfg
			cfg.Seed, cfg.Logf = SeedFromEnv(row.seed), t.Logf
			h, err := New(cfg)
			if err != nil {
				t.Fatalf("boot: %v", err)
			}
			defer func() {
				if err := h.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			commits, rep, err := h.Run(Script(rounds, row.cycle))
			if err != nil {
				t.Fatal(err)
			}
			if commits == 0 {
				t.Fatal("workload never committed — the soak exercised nothing")
			}
			if rep.Committed == 0 || rep.Edges == 0 {
				t.Fatalf("audit vacuous: %v", rep)
			}
			// A transfer whose three keys share a node commits in one phase;
			// about 1 in 9 do, so a row whose faults left few commits may
			// have none, and then commits one on the healed cluster.
			onePhase := h.seen.onePhase + sum(h, "twopc.part.one_phase")
			if onePhase == 0 {
				t.Logf("%s: faulted traffic committed no sole writer; committing one", row.name)
				if err := commitSoleWriter(h); err != nil {
					t.Fatal(err)
				}
				onePhase = h.seen.onePhase + sum(h, "twopc.part.one_phase")
			}
			if onePhase == 0 {
				t.Error("no one-phase commit on any incarnation — the sole-writer path went untested")
			}
			row.check(t, h)
			t.Logf("%s soak: %d rounds, %d commits, %d one-phase, %+v; %s", row.name, rounds, commits, onePhase, h.seen, rep)
		})
	}
}

// commitSoleWriter commits one transfer whose accounts and worker counter
// share an owner, so it commits in one phase.
func commitSoleWriter(h *Harness) error {
	m := h.cluster.CAS().ShardMap()
	for w := 0; w < h.cfg.Workers; w++ {
		owner := m.OwnerID(workerKey(w))
		var accts []int
		for a := 0; a < h.cfg.Accounts && len(accts) < 2; a++ {
			if m.OwnerID(accountKey(a)) == owner {
				accts = append(accts, a)
			}
		}
		if len(accts) < 2 {
			continue
		}
		var err error
		for try := 0; try < 20; try++ {
			if err = h.transfer(w, workload.BankTransfer{From: accts[0], To: accts[1], Amount: 1}, try); err == nil {
				h.committed[w]++
				return nil
			}
		}
		return fmt.Errorf("sole-writer transfer kept failing: %w", err)
	}
	return fmt.Errorf("no worker counter shares a node with two accounts")
}

// soakRow returns the soak table's row of that name.
func soakRow(t *testing.T, name string) soak {
	t.Helper()
	for _, r := range soaks {
		if r.name == name {
			return r
		}
	}
	t.Fatalf("no soak row %q", name)
	return soak{}
}

// checkLengths asserts the cycle helper cuts a row's script at exactly
// the rounds asked for.
func checkLengths(t *testing.T, r soak) {
	t.Helper()
	for _, rounds := range []int{0, 1, 7, 9, r.full} {
		if got := len(Script(rounds, r.cycle)); got != rounds {
			t.Errorf("%s: script length = %d, want %d", r.name, got, rounds)
		}
	}
}

// failovers counts a script's failover rounds.
func failovers(script []Fault) int {
	n := 0
	for _, f := range script {
		if strings.HasPrefix(f.Name, "failover") {
			n++
		}
	}
	return n
}

// TestDefaultScript checks the cycle helper on every row: a script has
// exactly the rounds asked for, and only the failover row fails over.
func TestDefaultScript(t *testing.T) {
	for _, r := range soaks {
		checkLengths(t, r)
		if n := failovers(Script(r.full, r.cycle)); r.name != "failover" && n != 0 {
			t.Errorf("%s: %d rounds hold %d failovers, want 0", r.name, r.full, n)
		}
	}
}

// TestFailoverScript checks the failover row fires exactly one failover
// however long it runs, and none when cut before its third round.
func TestFailoverScript(t *testing.T) {
	r := soakRow(t, "failover")
	checkLengths(t, r)
	for _, rounds := range []int{3, 7, r.full} {
		if n := failovers(Script(rounds, r.cycle)); n != 1 {
			t.Errorf("%d rounds hold %d failovers, want exactly 1", rounds, n)
		}
	}
	if n := failovers(Script(2, r.cycle)); n != 0 {
		t.Errorf("2 rounds hold %d failovers, want 0", n)
	}
}

// TestReshardScript checks the reshard row's script lengths.
func TestReshardScript(t *testing.T) {
	checkLengths(t, soakRow(t, "reshard"))
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

// TestVerifyNamesStuckKey holds a lock on one account past every verify
// attempt: the give-up error must name the key and the node that owns it.
func TestVerifyNamesStuckKey(t *testing.T) {
	h, err := New(Config{})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	defer h.Close()
	holder := h.cluster.Node(0).Begin(nil)
	defer holder.Rollback()
	if err := holder.Put(accountKey(3), []byte("0")); err != nil {
		t.Fatal(err)
	}
	err = h.verify()
	owner := fmt.Sprintf("owner node %d", h.cluster.CAS().ShardMap().SlotOwner(shardmap.SlotOf(accountKey(3))))
	if err == nil || !strings.Contains(err.Error(), string(accountKey(3))) || !strings.Contains(err.Error(), owner) {
		t.Fatalf("verify error %v does not name %q and its %s", err, accountKey(3), owner)
	}
}

// TestFailedVerifyNamesAuditViolation: a transfer whose credit is in the
// history but never reached the store breaks the balance sum, and the
// round's error carries the checker's account of it, not the sum alone.
func TestFailedVerifyNamesAuditViolation(t *testing.T) {
	h, err := New(Config{})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	defer h.Close()
	rec := h.rec.Begin(0)
	txn := h.cluster.Node(0).Begin(nil)
	src, err := readBalance(txn, rec, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := readBalance(txn, rec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Put(accountKey(0), rec.Write(accountKey(0), strconv.FormatInt(src-5, 10))); err != nil {
		t.Fatal(err)
	}
	rec.Write(accountKey(1), strconv.FormatInt(dst+5, 10)) // the dropped credit
	err = txn.Commit()
	rec.End(outcomeOf(txn, err))
	if err != nil {
		t.Fatal(err)
	}
	err = h.verify()
	if err == nil {
		t.Fatal("verify passed with a credit that never landed")
	}
	if err = h.explain(err); !strings.Contains(err.Error(), "balance invariant violated") || !strings.Contains(err.Error(), "audit:") {
		t.Fatalf("failed verify = %v, want the balance error and the audit's violations", err)
	}
	t.Logf("caught as expected: %v", err)
}

// TestAuditViolationDetected proves the soak-side wiring is non-vacuous:
// inject a lost update behind the harness's back and the audit check
// must fail.
func TestAuditViolationDetected(t *testing.T) {
	h, err := New(Config{})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	defer h.Close()
	if _, err := h.auditCheck(); err != nil {
		t.Fatalf("clean seeded cluster flagged: %v", err)
	}

	// Two clients both RMW the seed version of account 0: a fork in the
	// version chain (lost update) that balance conservation alone would
	// also catch, and — crucially — the audit must catch even though we
	// never run verify().
	seedVal := func() []byte {
		txn := h.cluster.Node(0).Begin(nil)
		defer txn.Rollback()
		v, _, err := txn.Get(accountKey(0))
		if err != nil {
			t.Fatalf("read seed value: %v", err)
		}
		return v
	}()
	for i := 0; i < 2; i++ {
		tr := h.rec.Begin(i)
		tr.Read(accountKey(0), seedVal, true)
		tr.Write(accountKey(0), "999")
		tr.End(audit.OutcomeCommitted)
	}
	if _, err := h.auditCheck(); err == nil {
		t.Fatal("audit checker missed a forced lost update")
	} else {
		t.Logf("caught as expected: %v", err)
	}
}
