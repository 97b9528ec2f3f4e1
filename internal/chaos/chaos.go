// Package chaos is an end-to-end fault-injection soak harness for the
// Treaty cluster: scripted rounds of faults (network adversity, node
// crash-restarts, disk failures, migrations, failover) run against a live
// cluster while workers execute a bank-transfer workload whose global
// invariant — the sum of all balances never changes — catches lost or
// partial writes. After every round the harness forces recovery, waits
// for the cluster to quiesce, asserts that no request-lifecycle state
// leaked (zero pending RPCs, zero active participant transactions, zero
// undecided coordinator entries) and checks the conservation laws the
// packages registered (core.Cluster.CheckLaws); at the end the whole
// client-observed history must be serializable.
package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"time"

	"treaty/internal/audit"
	"treaty/internal/core"
	"treaty/internal/shardmap"
	"treaty/internal/twopc"
	"treaty/internal/vfs"
	"treaty/internal/workload"
)

// The cluster shape and timeouts every soak runs with.
const (
	clusterSize    = 3
	initialBalance = 1000
	// roundDuration is how long workers run under each fault.
	roundDuration = 400 * time.Millisecond
	// txnTimeout bounds 2PC round-trips — short, so calls into faulted
	// nodes abort quickly instead of stalling the round.
	txnTimeout  = 250 * time.Millisecond
	lockTimeout = 150 * time.Millisecond
	// idleTimeout is the participant janitor's reclaim age.
	idleTimeout = time.Second
	// drainTimeout bounds post-round quiescence; it must cover a janitor
	// sweep (idleTimeout plus a tick).
	drainTimeout = 15 * time.Second
	// settle is how long a node stays isolated before it is killed: every
	// call and lock wait involving it has expired by then.
	settle = max(txnTimeout, lockTimeout) + 50*time.Millisecond
)

// Config is what differs between soaks. The zero value of every field
// selects a default.
type Config struct {
	// Accounts is the number of bank accounts (0 = 32).
	Accounts int
	// Workers is the number of concurrent transfer loops (0 = 4).
	Workers int
	// Mode is the cluster security mode (0 = ModeNativeTreatyEnc: secure
	// RPC and encrypted storage without TEE overhead or an external
	// counter service, the fastest full-protocol configuration).
	Mode core.SecurityMode
	// MemTableSize overrides the flush threshold; disk-fault soaks set it
	// small so rounds actually reach the SSTable read/write paths.
	MemTableSize int64
	// Replicate assigns every slot a backup and ships commit groups to
	// it before the primary's counters stabilize, so a failover fault can
	// promote a backup instead of restarting the dead node.
	Replicate bool
	// Seed makes the run reproducible (0 = 1).
	Seed int64
	// Logf receives progress lines (nil = discard).
	Logf func(format string, args ...any)
}

// SeedFromEnv returns the soak seed: the TREATY_SEED environment
// variable when set (so a failure's printed seed replays exactly), else
// def. Invalid values fall back to def.
func SeedFromEnv(def int64) int64 {
	if s := os.Getenv("TREATY_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v != 0 {
			return v
		}
	}
	return def
}

func (c Config) withDefaults() Config {
	if c.Accounts == 0 {
		c.Accounts = 32
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Mode == 0 {
		c.Mode = core.ModeNativeTreatyEnc
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Harness owns the cluster, the fault injectors, and the workload.
type Harness struct {
	cfg     Config
	cluster *core.Cluster
	// rec captures the client-observed history for the serializability
	// audit.
	rec *audit.Recorder
	// fs holds each node's disk-fault injector, indexed by node id and
	// shared across restarts, so its cumulative counters span
	// incarnations.
	fs []*vfs.FaultFS
	// rng seeds the faults' own randomness; only the goroutine running
	// the script draws from it.
	rng *rand.Rand
	// seen is what the faults did, for the non-vacuity checks.
	seen witness

	// nodesMu guards live-node access: workers take the read side to
	// pick a coordinator; crash/restart take the write side.
	nodesMu sync.RWMutex
	// failedOver marks nodes replaced by a promoted backup: they stay
	// down for the rest of the soak by design, so quiescence checks must
	// not wait for them to come back.
	failedOver map[int]bool

	// committed[i] counts worker i's observed successful commits; the
	// database's per-worker commit counter must never fall below it.
	committed []uint64
	aborted   []uint64
}

// witness counts what the faults actually did: a soak whose faults never
// fired proved nothing.
type witness struct {
	// startEpoch is the shard map's epoch at boot; each clean or
	// killed-then-retried migration flips it once.
	startEpoch      uint64
	migrations      int
	kills           int    // migration sources crashed mid-stream
	fenceRejections uint64 // live transactions refused by a fence or a stale epoch
	promotions      int
	rollbackRejects int // rolled-back promotion requests the CAS refused
	preKillCommits  int // commits on the healed cluster before a failover kill
	successor       uint64
	onePhase        uint64 // twopc.part.one_phase of crashed incarnations
}

// New boots a cluster and seeds the accounts.
func New(cfg Config) (*Harness, error) {
	cfg = cfg.withDefaults()
	fs := make([]*vfs.FaultFS, clusterSize)
	for i := range fs {
		fs[i] = vfs.NewFaultFS(vfs.OS{})
		fs[i].Seed(cfg.Seed + int64(i))
	}
	cluster, err := core.NewCluster(core.ClusterOptions{
		Nodes:        clusterSize,
		Mode:         cfg.Mode,
		LockTimeout:  lockTimeout,
		TxnTimeout:   txnTimeout,
		IdleTimeout:  idleTimeout,
		MemTableSize: cfg.MemTableSize,
		Seed:         cfg.Seed,
		NodeFS:       func(i int) vfs.FS { return fs[i] },
		Replicate:    cfg.Replicate,
	})
	if err != nil {
		return nil, err
	}
	h := &Harness{
		cfg:        cfg,
		cluster:    cluster,
		rec:        audit.NewRecorder(),
		fs:         fs,
		rng:        rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		seen:       witness{startEpoch: cluster.CAS().ShardMap().Epoch},
		committed:  make([]uint64, cfg.Workers),
		aborted:    make([]uint64, cfg.Workers),
		failedOver: make(map[int]bool),
	}
	cfg.Logf("chaos: seed=%d mode=%v (set TREATY_SEED=%d to replay)", cfg.Seed, cfg.Mode, cfg.Seed)
	if err := h.seedAccounts(); err != nil {
		_ = cluster.Stop()
		return nil, err
	}
	// Everything after this fence may assume the seed writes are durable
	// and visible: a later read missing a seeded key is a violation.
	h.rec.Fence()
	return h, nil
}

// Close tears the cluster down; Stop checks the conservation laws first.
func (h *Harness) Close() error { return h.cluster.Stop() }

func accountKey(i int) []byte { return workload.BankAccountKey(i) }
func workerKey(i int) []byte  { return workload.BankWorkerKey(i) }

// outcomeOf maps a finished distributed transaction to its audit
// classification. err is what the client saw from Commit (nil = ok);
// the mapping leans on twopc's soundness guarantee: only definite
// aborts (rollback before prepare) may claim OutcomeAborted.
func outcomeOf(txn *twopc.DistTxn, err error) audit.Outcome {
	if err == nil {
		return audit.OutcomeCommitted
	}
	switch txn.Outcome() {
	case twopc.TxnAborted:
		return audit.OutcomeAborted
	case twopc.TxnCommitted:
		return audit.OutcomeCommitted
	default:
		return audit.OutcomeIndeterminate
	}
}

// seedAccounts funds every account and zeroes every worker counter in
// one transaction (a single transaction spanning all accounts is fine
// on an unfaulted cluster). The seed writes anchor every audited
// version chain.
func (h *Harness) seedAccounts() error {
	for attempt := 0; attempt < 5; attempt++ {
		rec := h.rec.Begin(-1)
		txn := h.cluster.Node(0).Begin(nil)
		ok := true
		for i := 0; i < h.cfg.Accounts && ok; i++ {
			v := rec.Write(accountKey(i), strconv.FormatInt(initialBalance, 10))
			ok = txn.Put(accountKey(i), v) == nil
		}
		for w := 0; w < h.cfg.Workers && ok; w++ {
			v := rec.Write(workerKey(w), "0")
			ok = txn.Put(workerKey(w), v) == nil
		}
		if ok {
			err := txn.Commit()
			rec.End(outcomeOf(txn, err))
			if err == nil {
				return nil
			}
		} else {
			_ = txn.Rollback()
			rec.End(audit.OutcomeAborted)
		}
	}
	return fmt.Errorf("chaos: seeding accounts failed")
}

// pickNode returns a live node to coordinate a transaction, or nil when
// every node is down (the worker then just retries later). start seeds
// the rotation so workers spread across coordinators.
func (h *Harness) pickNode(start int) *core.Node {
	h.nodesMu.RLock()
	defer h.nodesMu.RUnlock()
	for k := 0; k < clusterSize; k++ {
		if n := h.cluster.Node((start + k) % clusterSize); n != nil {
			return n
		}
	}
	return nil
}

// crashNode crash-stops node i under the write lock so no worker holds a
// stale pointer mid-pick.
func (h *Harness) crashNode(i int) {
	h.nodesMu.Lock()
	h.seen.onePhase += h.cluster.Node(i).Snapshot().Counter("twopc.part.one_phase")
	h.cluster.CrashNode(i)
	h.nodesMu.Unlock()
}

// restartNode reboots node i and runs recovery; retried because recovery
// needs the rest of the cluster responsive.
func (h *Harness) restartNode(i int) error {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		h.nodesMu.Lock()
		_, err := h.cluster.RestartNode(i)
		h.nodesMu.Unlock()
		if err == nil {
			return nil
		}
		lastErr = err
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("chaos: restarting node %d: %w", i, lastErr)
}

// isolate cuts (or, with cut false, heals) every link between node and
// the rest of the cluster.
func (h *Harness) isolate(node int, cut bool) {
	addr := h.cluster.NodeAddr(node)
	for i := 0; i < clusterSize; i++ {
		if i == node {
			continue
		}
		if cut {
			h.cluster.Net().Partition(addr, h.cluster.NodeAddr(i))
		} else {
			h.cluster.Net().Heal(addr, h.cluster.NodeAddr(i))
		}
	}
}

// kill crash-stops a node the safe way — isolate it, let every call and
// lock wait involving it expire, kill it, heal — so the abandoned process
// cannot race its successor's files.
func (h *Harness) kill(node int) {
	h.isolate(node, true)
	time.Sleep(settle)
	h.crashNode(node)
	h.isolate(node, false)
}

// reboot kills a node and restarts it with recovery: after a poisoned log
// or a quarantined table that is the designed continuation.
func (h *Harness) reboot(node int) error {
	h.kill(node)
	return h.restartNode(node)
}

// transfer runs one bank transfer plus the worker's commit-counter
// read-modify-write inside a single distributed transaction. Every
// operation is recorded into the audit history, and every write is an
// RMW of what the transaction just read — that parentage is what lets
// the checker reconstruct version orders.
func (h *Harness) transfer(worker int, tr workload.BankTransfer, start int) error {
	n := h.pickNode(start)
	if n == nil {
		return fmt.Errorf("chaos: no live node")
	}
	rec := h.rec.Begin(worker)
	txn := n.Begin(nil)
	abort := func(err error) error {
		_ = txn.Rollback()
		rec.End(audit.OutcomeAborted)
		return err
	}
	src, err := readBalance(txn, rec, tr.From)
	if err != nil {
		return abort(err)
	}
	dst, err := readBalance(txn, rec, tr.To)
	if err != nil {
		return abort(err)
	}
	if err := txn.Put(accountKey(tr.From), rec.Write(accountKey(tr.From), strconv.FormatInt(src-tr.Amount, 10))); err != nil {
		return abort(err)
	}
	if err := txn.Put(accountKey(tr.To), rec.Write(accountKey(tr.To), strconv.FormatInt(dst+tr.Amount, 10))); err != nil {
		return abort(err)
	}
	// The commit counter rides in the same transaction: if the commit is
	// durable, this write must be durable too (the "no committed write
	// lost" probe). An RMW of the stored counter, which may be AHEAD of
	// the worker's observed count (recovery can land commits the client
	// saw as failed) but never behind.
	cnt, err := readCounter(txn, rec, worker)
	if err != nil {
		return abort(err)
	}
	if err := txn.Put(workerKey(worker), rec.Write(workerKey(worker), strconv.FormatUint(cnt+1, 10))); err != nil {
		return abort(err)
	}
	err = txn.Commit()
	rec.End(outcomeOf(txn, err))
	return err
}

// readBalance reads one account inside txn, recording the observation.
func readBalance(txn *twopc.DistTxn, rec *audit.TxnRec, acct int) (int64, error) {
	v, found, err := txn.Get(accountKey(acct))
	if err != nil {
		return 0, err
	}
	rec.Read(accountKey(acct), v, found)
	if !found {
		return 0, fmt.Errorf("chaos: account %d missing", acct)
	}
	return strconv.ParseInt(audit.Base(string(v)), 10, 64)
}

// readCounter reads one worker's commit counter, recording the
// observation. A missing counter reads as zero, though seedAccounts
// always writes it.
func readCounter(txn *twopc.DistTxn, rec *audit.TxnRec, worker int) (uint64, error) {
	v, found, err := txn.Get(workerKey(worker))
	if err != nil {
		return 0, err
	}
	rec.Read(workerKey(worker), v, found)
	if !found {
		return 0, nil
	}
	return strconv.ParseUint(audit.Base(string(v)), 10, 64)
}

// runTraffic runs the worker pool for d, returning aggregate outcomes.
func (h *Harness) runTraffic(d time.Duration) (commits, aborts uint64) {
	var wg sync.WaitGroup
	stop := time.Now().Add(d)
	results := make([]struct{ c, a uint64 }, h.cfg.Workers)
	for w := 0; w < h.cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bank := workload.NewBank(
				workload.BankConfig{Accounts: h.cfg.Accounts},
				h.cfg.Seed+int64(w)*7919+int64(h.committed[w]))
			for time.Now().Before(stop) {
				if err := h.transfer(w, bank.Next(), bank.Intn(clusterSize)); err != nil {
					h.aborted[w]++
					results[w].a++
					continue
				}
				h.committed[w]++
				results[w].c++
			}
		}(w)
	}
	wg.Wait()
	for _, r := range results {
		commits += r.c
		aborts += r.a
	}
	return commits, aborts
}

// recoverAll re-drives coordinator recovery and participant resolution on
// every live node; errors are tolerated (the drain loop retries).
func (h *Harness) recoverAll() {
	h.nodesMu.RLock()
	live := h.cluster.LiveNodes()
	h.nodesMu.RUnlock()
	for _, n := range live {
		if err := n.Recover(); err != nil {
			h.cfg.Logf("chaos: recover node %d: %v", n.ID(), err)
		}
	}
}

// leaks reports request-lifecycle state that should be empty at
// quiescence, or "" when everything drained.
func (h *Harness) leaks() string {
	h.nodesMu.RLock()
	defer h.nodesMu.RUnlock()
	for i := 0; i < clusterSize; i++ {
		n := h.cluster.Node(i)
		if n == nil {
			if h.failedOver[i] {
				continue // replaced by its promoted backup, never returns
			}
			return fmt.Sprintf("node %d still down", i)
		}
		if p := n.Endpoint().PendingCount(); p != 0 {
			return fmt.Sprintf("node %d: %d pending RPCs", i, p)
		}
		if a := n.Participant().ActiveCount(); a != 0 {
			return fmt.Sprintf("node %d: %d active participant txns", i, a)
		}
		if pr := n.Coordinator().PreparedCount(); pr != 0 {
			return fmt.Sprintf("node %d: %d undecided coordinator txns", i, pr)
		}
	}
	return ""
}

// drain forces recovery until the cluster quiesces: no pending RPCs, no
// active participant transactions (the janitor reclaims abandoned ones),
// no undecided coordinator entries.
func (h *Harness) drain() (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(drainTimeout)
	h.recoverAll()
	for {
		why := h.leaks()
		if why == "" {
			return time.Since(start), nil
		}
		if time.Now().After(deadline) {
			return time.Since(start), fmt.Errorf("chaos: cluster did not quiesce: %s", why)
		}
		time.Sleep(100 * time.Millisecond)
		h.recoverAll()
	}
}

// reading names key and its owner under the current shard map, so a read
// that keeps failing points at the shard holding the stuck lock.
func (h *Harness) reading(key []byte, err error) error {
	m := h.cluster.CAS().ShardMap()
	slot := shardmap.SlotOf(key)
	return fmt.Errorf("reading %q (slot %d, owner node %d at epoch %d): %w", key, slot, m.SlotOwner(slot), m.Epoch, err)
}

// verify checks the global invariants on a quiesced cluster: the balance
// sum is conserved, and no worker's observed commit was lost. The
// verification reads are themselves recorded as a read-only audited
// transaction — a stale post-round state becomes an anti-dependency
// cycle the checker reports, not just a wrong sum.
func (h *Harness) verify() error {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(50 * time.Millisecond)
		}
		rec := h.rec.Begin(-2)
		coord := h.pickNode(attempt)
		if coord == nil {
			return fmt.Errorf("chaos: no live node to verify from")
		}
		txn := coord.Begin(nil)
		var sum int64
		var err error
		for i := 0; i < h.cfg.Accounts && err == nil; i++ {
			var bal int64
			if bal, err = readBalance(txn, rec, i); err != nil {
				err = h.reading(accountKey(i), err)
			}
			sum += bal
		}
		counters := make([]uint64, h.cfg.Workers)
		for w := 0; w < h.cfg.Workers && err == nil; w++ {
			if counters[w], err = readCounter(txn, rec, w); err != nil {
				err = h.reading(workerKey(w), err)
			}
		}
		if err != nil {
			lastErr = err
			_ = txn.Rollback()
			rec.End(audit.OutcomeAborted)
			continue
		}
		err = txn.Commit()
		rec.End(outcomeOf(txn, err))
		if err != nil {
			lastErr = err
			continue
		}

		if want := int64(h.cfg.Accounts) * initialBalance; sum != want {
			return fmt.Errorf("chaos: balance invariant violated: sum=%d want=%d", sum, want)
		}
		for w := 0; w < h.cfg.Workers; w++ {
			// The database may be AHEAD of the worker (a commit the worker
			// saw as failed can still land via recovery) but never behind:
			// behind means a committed write was lost.
			if counters[w] < h.committed[w] {
				return fmt.Errorf("chaos: lost committed write: worker %d counter=%d observed commits=%d",
					w, counters[w], h.committed[w])
			}
		}
		return nil
	}
	return fmt.Errorf("chaos: verification transaction kept aborting: %w", lastErr)
}

// explain appends the serializability checker's verdict on the history
// recorded so far to a failed verification, so a broken invariant names
// the transactions behind it.
func (h *Harness) explain(err error) error {
	if aerr := audit.Check(h.rec.History()).Err(); aerr != nil {
		return fmt.Errorf("%w; %v", err, aerr)
	}
	return fmt.Errorf("%w; the history so far audits clean", err)
}

// auditCheck runs the serializability checker over the history so far
// (call at quiescence) and converts violations into an error carrying
// the reproduction seed.
func (h *Harness) auditCheck() (*audit.Report, error) {
	if open := h.rec.Open(); open != 0 {
		return nil, fmt.Errorf("chaos: audit ran with %d transactions still open (TREATY_SEED=%d)", open, h.cfg.Seed)
	}
	rep := audit.Check(h.rec.History())
	h.cfg.Logf("chaos: %s", rep)
	if err := rep.Err(); err != nil {
		return rep, fmt.Errorf("chaos: serializability violated (replay with TREATY_SEED=%d): %w", h.cfg.Seed, err)
	}
	return rep, nil
}

// Run executes the script: for each fault, inject, run traffic, lift,
// drain, verify and check the conservation laws; then the whole history must
// pass the serializability checker. It returns the commits the workers
// observed, the audit report, and the first violation, which names the
// seed that replays the run.
func (h *Harness) Run(script []Fault) (commits uint64, rep *audit.Report, err error) {
	for round, f := range script {
		h.cfg.Logf("chaos: round %d/%d: %s", round+1, len(script), f.Name)
		f.Inject(h)
		c, aborts := h.runTraffic(roundDuration)
		commits += c
		var drained time.Duration
		if err = f.Lift(h); err != nil {
			err = fmt.Errorf("lifting fault: %w", err)
		} else if drained, err = h.drain(); err == nil {
			if err = h.verify(); err != nil {
				err = h.explain(err)
			} else {
				err = h.cluster.CheckLaws()
			}
		}
		if err != nil {
			return commits, nil, fmt.Errorf("chaos: round %d (%s): %w [replay with TREATY_SEED=%d]", round+1, f.Name, err, h.cfg.Seed)
		}
		h.cfg.Logf("chaos: round %d/%d: %s: %d commits, %d aborts, drained in %v",
			round+1, len(script), f.Name, c, aborts, drained)
	}
	if js, err := h.cluster.SnapshotJSON(); err == nil {
		h.cfg.Logf("chaos: final metrics snapshot:\n%s", js)
	}
	rep, err = h.auditCheck()
	return commits, rep, err
}
